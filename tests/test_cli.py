import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import lmgsqueeze
from lmgsqueeze import algebra, experiments, metrics
from lmgsqueeze.canonical import from_chi_gamma
from lmgsqueeze.cli import EXPERIMENTS, INSPECT_COMMANDS, _read_config, main, run, validate_config
from lmgsqueeze.errors import ConfigError, TooLarge
from lmgsqueeze.experiments import (
    MAX_WORKERS,
    evolve_trace,
    scaling_study,
    sweep_bytes,
    sweep_gamma,
    sweep_initial_state,
)
from lmgsqueeze.metrics import SCAN_CHUNK, SCAN_SAMPLE_BYTES, TRACE_BLOCKS, TRACE_FIXED_BYTES
from lmgsqueeze.states import BlochAngles

MINIMAL = {"chi": 1.0, "gamma": 0.1, "n_spins": 100, "experiment": "compare-pulsed"}

# Directory holding the imported package, so the child process imports the
# same copy whatever its working directory (a relative PYTHONPATH would not).
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(lmgsqueeze.__file__)))


def cli(args, cwd):
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=PACKAGE_ROOT + (os.pathsep + inherited if inherited else ""),
    )
    return subprocess.run(
        [sys.executable, "-m", "lmgsqueeze", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_minimal_config_defaults():
    cfg = validate_config(_read_config(json.dumps(MINIMAL)))
    assert cfg["axis"] == "z"
    assert cfg["branch"] == "A"
    assert cfg["max_step"] == 0.05
    assert cfg["seed"] == 0
    assert cfg["initial"] == {"theta": math.pi / 2, "phi": math.pi / 2}


def test_initial_accepts_pair_form():
    cfg = validate_config(dict(MINIMAL, initial=[0.5, 1.0]))
    assert cfg["initial"] == {"theta": 0.5, "phi": 1.0}


def test_both_parameterizations_rejected():
    cfg = dict(MINIMAL, coupling=[1, 0, 0, 0, 0.25, 0, 0, 0, 0])
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert "coupling" in str(err.value) and "chi" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config(dict(MINIMAL, coupling_matrix=[1]))
    assert "coupling_matrix" in str(err.value)


def test_missing_model_rejected():
    with pytest.raises(ConfigError):
        validate_config({"n_spins": 10, "experiment": "evolve"})


def test_range_violations_name_field(tmp_path, monkeypatch, capsys):
    # the config check only types these; the model and the initial angles
    # that evolve builds refuse them by name
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    for bad, field in (
        ({"gamma": 1.5}, "gamma"),
        ({"initial": {"theta": 4.0, "phi": 0.0}}, "initial.theta"),
        ({"n_spins": 0}, "n_spins"),
    ):
        path.write_text(json.dumps(dict(MINIMAL, **bad)))
        assert main(["evolve", "--config", str(path), "--out", "out"]) == 2
        assert f"]: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


NOISE = dict(MINIMAL, experiment="noise", channel="pulse_separation", relative_sigma=0.1)
COUPLED = {"experiment": "evolve", "n_spins": 10}


@pytest.mark.parametrize(
    "raw,field",
    [
        (dict(NOISE, relative_sigma="abc"), "relative_sigma"),
        (dict(NOISE, relative_sigma=math.nan), "relative_sigma"),
        (dict(NOISE, total_time=-math.inf), "total_time"),
        (dict(NOISE, total_time=math.inf), "total_time"),
        (dict(COUPLED, coupling=[1, 0, 0, 0, "x", 0, 0, 0, 0]), "coupling[4]"),
        (dict(COUPLED, coupling=[1, 0, 0, 0, math.nan, 0, 0, 0, 0]), "coupling[4]"),
        (dict(MINIMAL, chi=math.nan), "chi"),
        (dict(MINIMAL, n_spins=math.inf), "n_spins"),
        (dict(MINIMAL, horizon=math.inf), "horizon"),
        (dict(MINIMAL, horizon=-math.inf), "horizon"),
        (dict(MINIMAL, max_step=math.inf), "max_step"),
        (dict(MINIMAL, initial={"theta": math.nan, "phi": 0.0}), "initial.theta"),
    ],
)
def test_non_finite_and_non_positive_values_name_field(raw, field):
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert str(err.value).startswith(f"{field}: ")


def test_workers_above_maximum_refused(tmp_path, monkeypatch, capsys):
    # the sweep owns the bound; a 2 x 2 grid is one orbit, one task, so 64
    # workers start no process
    monkeypatch.chdir(tmp_path)
    assert MAX_WORKERS == 64
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, n_spins=4, theta_points=2, phi_points=2)))
    sweep = ["sweep-initial-state", "--config", str(path)]
    assert main([*sweep, "--workers", "64", "--out", "ok"]) == 0
    for workers in (65, 10**6):
        assert main([*sweep, "--workers", str(workers), "--out", "big"]) == 2
        assert "error[ConfigError]: workers: " in capsys.readouterr().err
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize("gammas", [[False], [0.6], ["0.1"], [math.nan]])
def test_gammas_entries_validated(tmp_path, monkeypatch, capsys, gammas):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"chi": 1.0, "gamma": 0.1, "n_spins": 10, "gammas": gammas}))
    assert main(["sweep-gamma", "--config", str(path), "--out", "out"]) == 2
    assert "ConfigError]: gammas[0]: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gamma_above_half_accepted_and_remapped(tmp_path):
    cfg = validate_config(
        {
            "chi": 1.0,
            "gamma": 0.7,
            "n_spins": 16,
            "experiment": "evolve",
            "grid_points": 300,
            "output_dir": str(tmp_path / "out"),
        }
    )
    assert run(cfg) == 0
    descriptor = json.loads((tmp_path / "out" / "descriptor.json").read_text())
    assert descriptor["model"]["gamma"] == pytest.approx(0.3, abs=1e-12)
    assert descriptor["model"]["sign_flipped"] is True
    assert descriptor["config"]["gamma"] == 0.7


def test_canonicalize_subcommand(tmp_path):
    out = cli(["canonicalize", "--coupling", "1,0,0,0,0.9,0,0,0,0"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert "gamma=0.1" in out.stdout
    assert "sign_flipped=true" in out.stdout
    assert "chi=2" in out.stdout
    assert os.listdir(tmp_path) == []  # inspection commands write nothing


def test_design_subcommand(tmp_path):
    out = cli(["design", "--chi", "1", "--gamma", "0.1", "--axis", "y"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert "ratio_t2_t1=0.578947368421" in out.stdout
    assert "chi_eff=0.266666666667" in out.stdout


def test_exit_codes(tmp_path):
    isotropic = cli(["canonicalize", "--coupling", "1,0,0,0,1,0,0,0,1"], tmp_path)
    assert isotropic.returncode == 3
    assert "IsotropicCoupling" in isotropic.stderr
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps(dict(MINIMAL, bogus=1)))
    out = cli(["compare-pulsed", "--config", str(bad_key)], tmp_path)
    assert out.returncode == 2
    assert "bogus" in out.stderr
    impossible = cli(
        ["design", "--chi", "1", "--gamma", "0.1", "--axis", "x"], tmp_path
    )
    assert impossible.returncode == 3
    assert "XAxisImpossible" in impossible.stderr


@pytest.mark.parametrize(
    "content",
    [
        b'{"chi": 1.0,',
        b"[1, 2]",
        b'"just a string"',
        json.dumps({"tool": "lmgsqueeze", "parameters": MINIMAL, "config": 5}).encode(),
        b'{"chi": "\xc3\x28"}',
    ],
    ids=["truncated", "array", "string", "descriptor_config_not_object", "not_utf8"],
)
def test_malformed_config_file_is_a_config_error(tmp_path, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    out = cli(["evolve", "--config", str(path), "--out", "o"], tmp_path)
    assert out.returncode == 2
    assert "error[ConfigError]" in out.stderr
    assert not (tmp_path / "o").exists()


def test_missing_config_file_is_an_io_error(tmp_path):
    out = cli(["evolve", "--config", str(tmp_path / "absent.json"), "--out", "o"], tmp_path)
    assert out.returncode == 4
    assert not (tmp_path / "o").exists()


def test_oversized_spin_count_exits_before_allocating(tmp_path):
    out = cli(
        ["evolve", "--n-spins", "1000000", "--chi", "1", "--gamma", "0.1", "--out", "big"],
        tmp_path,
    )
    assert out.returncode == 3
    assert "TooLarge" in out.stderr
    assert not (tmp_path / "big").exists()


@pytest.mark.parametrize("extra", [{"n_grid": [20]}, {"n_grid": [20, 20], "variants": ["OAT"]}])
def test_scaling_needs_two_distinct_spin_counts(tmp_path, extra):
    config = dict(MINIMAL, experiment="scaling", output_dir="s", **extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = cli(["scaling", "--config", str(path)], tmp_path)
    assert out.returncode == 2
    assert "n_grid" in out.stderr
    assert not (tmp_path / "s").exists()


def test_scaling_refuses_repeated_variant(tmp_path):
    config = dict(
        MINIMAL, experiment="scaling", output_dir="s", n_grid=[10, 20], variants=["OAT", "OAT"]
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = cli(["scaling", "--config", str(path)], tmp_path)
    assert out.returncode == 2
    assert "variants" in out.stderr
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "experiment, extra",
    [
        ("evolve", {"grid_points": 10**12}),
        ("sweep-initial-state", {"theta_points": 10**8, "phi_points": 10**8}),
    ],
)
def test_oversized_trace_or_sweep_grid_exits_before_allocating(tmp_path, experiment, extra):
    config = dict(MINIMAL, experiment=experiment, output_dir="big", **extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = cli([experiment, "--config", str(path)], tmp_path)
    assert out.returncode == 3
    assert "TooLarge" in out.stderr
    assert not (tmp_path / "big").exists()


def test_trace_and_sweep_sizes_count_every_block(monkeypatch):
    # memory for exactly the blocks and sample bytes of 1000 trace samples at N = 100
    n, k = 100, 1000
    every_sample = TRACE_FIXED_BYTES + TRACE_BLOCKS * 16 * k * (n + 1) + SCAN_SAMPLE_BYTES * k
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": every_sample}
    monkeypatch.setattr(algebra.os, "sysconf", memory.__getitem__)
    model, initial = from_chi_gamma(1.0, 0.1, n), BlochAngles(math.pi / 2.0, math.pi / 2.0)
    assert len(evolve_trace(model, initial, grid_points=k).tables["trace"].rows) == k
    with pytest.raises(TooLarge):
        evolve_trace(model, initial, grid_points=k + 1)
    # scaling's largest N sets the size of its chunked scan; at N = 60 the
    # space (algebra.DENSE_BYTES_PER_DIM2 per (N+1)^2) fits in that memory too
    n = 60
    memory["SC_PHYS_PAGES"] = (
        TRACE_FIXED_BYTES + TRACE_BLOCKS * 16 * SCAN_CHUNK * (n + 1) + SCAN_SAMPLE_BYTES * k
    )
    scaling = scaling_study(0.1, [10, n], variants=["LMG"], grid_points=k)
    assert scaling.descriptor["parameters"]["n_grid"] == [10, n]
    with pytest.raises(TooLarge):
        scaling_study(0.1, [10, n + 1], variants=["LMG"], grid_points=k)

    # the sweep grid at N = 2, whose traces and space fit in what it takes
    memory["SC_PHYS_PAGES"] = sweep_bytes(40, 30)
    small = from_chi_gamma(1.0, 0.1, 2)
    sweep = sweep_initial_state(small, theta_points=40, phi_points=30, grid_points=100)
    assert len(sweep.tables["grid"].rows) == 40 * 30
    with pytest.raises(TooLarge, match="41 x 30 sweep grid"):
        sweep_initial_state(small, theta_points=41, phi_points=30, grid_points=100)


@pytest.mark.parametrize("experiment", ["sweep-gamma", "scaling", "sweep-initial-state", "evolve"])
def test_chunked_scans_are_sized_by_their_chunk(monkeypatch, experiment):
    # 4 GiB of memory: 10^6 samples at N = 100 fit a scan that holds
    # SCAN_CHUNK columns of states at a time, not TRACE_BLOCKS whole-grid
    # blocks; an admitted grid goes on to build its space, where the run
    # stops here
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2**32}
    monkeypatch.setattr(algebra.os, "sysconf", memory.__getitem__)

    class Admitted(Exception):
        pass

    def admitted(n_spins):
        raise Admitted

    monkeypatch.setattr(experiments, "build_space", admitted)
    model, k = from_chi_gamma(1.0, 0.1, 100), 10**6
    call = {
        "evolve": lambda: evolve_trace(model, BlochAngles(0.0, 0.0), grid_points=k),
        "sweep-gamma": lambda: sweep_gamma(100, [0.1], grid_points=k),
        "scaling": lambda: scaling_study(0.1, [50, 100], grid_points=k),
        "sweep-initial-state": lambda: sweep_initial_state(model, grid_points=k),
    }[experiment]
    with pytest.raises(TooLarge if experiment == "evolve" else Admitted):
        call()


@pytest.mark.parametrize("experiment", ["compare-pulsed", "noise", "design"])
def test_a_grid_the_experiment_never_reads_is_not_sized(monkeypatch, experiment):
    # compare-pulsed samples its z cycle grid, sized once its schedule is built, and
    # noise and design build no trace grid: 8 GiB refuses no grid_points
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2**33}
    monkeypatch.setattr(algebra.os, "sysconf", memory.__getitem__)
    cfg = dict(MINIMAL, experiment=experiment, n_spins=100, channel="chi", relative_sigma=0.1)
    for grid_points in (10**6, 10**10):
        assert validate_config(dict(cfg, grid_points=grid_points))["grid_points"] == grid_points


@pytest.mark.parametrize(
    "unused",
    [
        {"n_grid": [5, 5]},
        {"variants": ["OAT", "OAT"]},
        {"theta_points": 10**5, "phi_points": 10**5},
        {"theta_points": 1, "phi_points": 1},
        # sweep_gamma owns the gamma range and noise_monte_carlo the run count
        {"gammas": [0.9]},
        {"n_runs": 0},
    ],
)
def test_keys_of_other_experiments_do_not_fail_a_run(tmp_path, monkeypatch, unused):
    # a scaling-only or sweep-only value that evolve never reads
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, n_spins=12, grid_points=200, **unused)))
    assert main(["evolve", "--config", str(path), "--out", "out"]) == 0
    assert (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize(
    "command, flags, grids",
    [
        ("sweep-gamma", ["--chi", "1", "--n-spins", "10"], {"gammas": [0.0, 0.25, 0.5]}),
        ("scaling", ["--chi", "1", "--gamma", "0.1"], {"n_grid": [10, 14], "variants": ["OAT"]}),
    ],
)
def test_a_model_key_the_experiment_sets_per_point_may_be_left_out(
    tmp_path, monkeypatch, command, flags, grids
):
    # sweep-gamma sets gamma, and scaling N, at each of its points
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(grids, grid_points=200)))
    assert main([command, "--config", str(path), *flags, "--out", "first"]) == 0
    descriptor = str(tmp_path / "first" / "descriptor.json")
    assert main([command, "--config", descriptor, "--out", "second"]) == 0
    tables = sorted(p.name for p in (tmp_path / "first").glob("*.csv"))
    assert tables
    for name in tables:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()


@pytest.mark.parametrize(
    "grid, message",
    [
        # sweep_initial_state owns this rule, not the config check every run makes
        ({"theta_points": 1}, "theta_points: must be >= 2"),
        ({"phi_points": 1}, "phi_points: must be >= 2"),
        # a grid of negative counts meets that rule before its size is taken
        ({"theta_points": -(10**5), "phi_points": -(10**5)}, "theta_points: must be >= 2"),
    ],
)
def test_sweep_needs_two_points_per_axis(tmp_path, monkeypatch, capsys, grid, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, experiment="sweep-initial-state", **grid)))
    assert main(["sweep-initial-state", "--config", str(path), "--out", "s"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "command, config, flags, field",
    [
        ("evolve", {"chi": 1.0, "gamma": 0.1}, [], "n_spins"),
        ("evolve", dict(MINIMAL, n_spins=10.5), [], "n_spins"),
        # the CLI takes the experiment from its command; a parsed config names it
        (None, {k: v for k, v in MINIMAL.items() if k != "experiment"}, [], "experiment"),
        (None, dict(MINIMAL, experiment="twist"), [], "experiment"),
        ("evolve", {"n_spins": 10, "coupling": [1.0, 0.0, 0.0]}, [], "coupling"),
        ("evolve", dict(MINIMAL, initial={"theta": 1.0}), [], "initial"),
        ("evolve", dict(MINIMAL, initial={"theta": 1.0, "phi": 7.0}), [], "initial.phi"),
        ("design", dict(MINIMAL, axis="w"), [], "axis"),
        ("design", dict(MINIMAL, branch="C"), [], "branch"),
        ("sweep-gamma", dict(MINIMAL, gammas=[]), [], "gammas"),
        ("scaling", dict(MINIMAL, n_grid=[]), [], "n_grid"),
        ("scaling", dict(MINIMAL, variants=[]), [], "variants"),
        ("scaling", dict(MINIMAL, variants=["OAT", 3]), [], "variants"),
        ("noise", dict(MINIMAL, relative_sigma=0.1), [], "channel"),
        ("evolve", dict(MINIMAL, output_dir=5), [], "output_dir"),
        ("canonicalize", {}, ["--coupling", "1,0,0,0,x,0,0,0,0"], "coupling"),
    ],
)
def test_malformed_field_is_refused_by_name(
    tmp_path, monkeypatch, capsys, command, config, flags, field
):
    monkeypatch.chdir(tmp_path)
    if command is None:
        with pytest.raises(ConfigError, match=f"^{field}: "):
            validate_config(_read_config(json.dumps(config)))
        return
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), *flags]) == 2
    assert f"error[ConfigError]: {field}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "n_grid, message",
    [([10, 0], "n_grid[1]: must be >= 1, got 0"), ([10, 2.5], "n_grid[1]: expected an integer")],
)
def test_bad_n_grid_entry_is_refused_by_index(tmp_path, monkeypatch, capsys, n_grid, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, n_grid=n_grid)))
    assert main(["scaling", "--config", str(path)]) == 2
    assert f"error[ConfigError]: {message}" in capsys.readouterr().err


def test_noise_zero_sigma_identical_columns(tmp_path):
    config = {
        "chi": 1.0,
        "gamma": 0.1,
        "n_spins": 16,
        "experiment": "noise",
        "channel": "pulse_separation",
        "relative_sigma": 0.0,
        "n_runs": 3,
        "output_dir": "noise-out",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = cli(["noise", "--config", str(path)], tmp_path)
    assert out.returncode == 0, out.stderr
    runs = (tmp_path / "noise-out" / "runs.csv").read_text().splitlines()
    assert len(runs) == 4
    minima = {line.split(",")[4] for line in runs[1:]}
    assert len(minima) == 1


def test_summary_matches_csv(tmp_path):
    config = {
        "chi": 1.0,
        "gamma": 0.2,
        "n_spins": 20,
        "experiment": "evolve",
        "grid_points": 300,
        "output_dir": "evolve-out",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = cli(["evolve", "--config", str(path)], tmp_path)
    assert out.returncode == 0, out.stderr
    summary = out.stdout.strip()
    rows = (tmp_path / "evolve-out" / "minimum.csv").read_text().splitlines()
    t_min_csv, _, xi2_csv, _ = rows[1].split(",")
    assert f"xi2_min={xi2_csv}" in summary
    assert f"t_min={t_min_csv}" in summary


def test_descriptor_round_trip(tmp_path):
    config = {
        "chi": 1.0,
        "gamma": 0.15,
        "n_spins": 16,
        "experiment": "noise",
        "channel": "pulse_area",
        "relative_sigma": 2e-4,
        "n_runs": 4,
        "seed": 9,
        "output_dir": "first",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    first = cli(["noise", "--config", str(path)], tmp_path)
    assert first.returncode == 0, first.stderr
    second = cli(
        [
            "noise",
            "--config",
            str(tmp_path / "first" / "descriptor.json"),
            "--out",
            "second",
        ],
        tmp_path,
    )
    assert second.returncode == 0, second.stderr
    for name in ("runs.csv", "trace_stats.csv", "summary.csv"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b


def test_flag_overrides_win():
    import argparse

    from lmgsqueeze.cli import _flag_overrides

    ns = argparse.Namespace(
        seed=7, workers=None, chi=None, gamma=0.3, n_spins=None, axis=None,
        branch=None, max_step=None, cycles=None, channel=None,
        relative_sigma=None, n_runs=None, coupling=None, out=None,
    )
    overrides = _flag_overrides(ns)
    assert overrides == {"seed": 7, "gamma": 0.3}


@pytest.mark.parametrize(
    "config,expect",
    [
        (
            {"experiment": "sweep-gamma", "gammas": [0.0, 0.5], "grid_points": 300},
            ("gamma_sweep.csv",),
        ),
        (
            {
                "experiment": "sweep-initial-state",
                "theta_points": 5,
                "phi_points": 4,
                "grid_points": 150,
            },
            ("grid.csv", "argmin.csv"),
        ),
        (
            {"experiment": "scaling", "n_grid": [10, 14], "grid_points": 400},
            ("scaling.csv", "slopes.csv"),
        ),
        ({"experiment": "compare-pulsed"}, ("traces.csv", "minima.csv")),
    ],
)
def test_experiment_dispatch_writes_tables(tmp_path, config, expect):
    full = dict(config, chi=1.0, gamma=0.1, n_spins=14, output_dir="out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(full))
    result = cli([full["experiment"], "--config", str(path)], tmp_path)
    assert result.returncode == 0, result.stderr
    for name in expect:
        assert (tmp_path / "out" / name).exists()
    assert (tmp_path / "out" / "descriptor.json").exists()


def test_main_function_runs_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(
        [
            "evolve",
            "--chi", "1", "--gamma", "0.1", "--n-spins", "12",
            "--out", "trace-out",
        ]
    )
    assert rc == 0
    assert "xi2_min=" in capsys.readouterr().out
    assert (tmp_path / "trace-out" / "trace.csv").exists()


@pytest.mark.parametrize(
    "initial, field",
    [
        ({"theta": 4.0, "phi": 0.0}, "initial.theta"),
        ({"theta": 1.0, "phi": -0.5}, "initial.phi"),
        ({"theta": 1.0, "phi": 7.0}, "initial.phi"),
    ],
)
def test_out_of_range_initial_angle_is_named_in_full(tmp_path, monkeypatch, capsys, initial, field):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, n_spins=10, initial=initial)))
    assert main(["evolve", "--config", str(path), "--out", "out"]) == 2
    assert f"error[ConfigError]: {field}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _rows_agree(narrow: bytes, wide: bytes) -> bool:
    """Whether two CSVs have the same cells, floats to a relative 1e-12."""
    rows = [list(csv.reader(io.StringIO(text.decode()))) for text in (narrow, wide)]
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        return False
    for got, want in zip(*rows):
        for a, b in zip(got, want):
            if a != b and not math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0):
                return False
    return True


@pytest.mark.parametrize(
    "command, extra",
    [
        ("sweep-initial-state", {"theta_points": 9, "phi_points": 8}),
        ("compare-pulsed", {}),
        ("noise", {"channel": "pulse_separation", "relative_sigma": 0.1, "n_runs": 4}),
    ],
)
def test_outputs_do_not_depend_on_the_scan_chunk_width(tmp_path, monkeypatch, command, extra):
    # a minimum search samples its times in chunks and stops at the first
    # bracketed minimum; one time per chunk must find the same minima.  A
    # one-column product may round differently from a wide one, so a file
    # that is not byte-identical must agree to 1e-12 in every float cell
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(chi=1.0, gamma=0.1, n_spins=20, **extra)))
    written = []
    for width in (1, metrics.SCAN_CHUNK):
        # the same relative output directory, which the descriptor records
        (tmp_path / f"w{width}").mkdir()
        monkeypatch.chdir(tmp_path / f"w{width}")
        monkeypatch.setattr(metrics, "SCAN_CHUNK", width)
        assert main([command, "--config", str(path), "--out", "out"]) == 0
        out = tmp_path / f"w{width}" / "out"
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    narrow, wide = written
    assert narrow.keys() == wide.keys() and "descriptor.json" in wide
    assert narrow["descriptor.json"] == wide["descriptor.json"]
    for name in wide:
        assert narrow[name] == wide[name] or _rows_agree(narrow[name], wide[name]), name


# A small config every command runs, and per key one well-typed value that
# breaks the key's rule, with the commands that read the key: the library
# function that reads a value owns its rule, so those commands refuse it by
# name and every other command runs.
SMALL = dict(
    chi=1.0,
    gamma=0.1,
    n_spins=4,
    grid_points=100,
    theta_points=3,
    phi_points=2,
    gammas=[0.1, 0.3],
    n_grid=[4, 6],
    channel="chi",
    relative_sigma=0.1,
    n_runs=2,
)
ALL = frozenset(EXPERIMENTS + INSPECT_COMMANDS)
TRACED = {"evolve", "sweep-initial-state", "sweep-gamma"}
PULSED = {"compare-pulsed", "scaling", "noise"}
BAD_VALUES = [
    # every command builds the model
    ("chi", {"chi": -1.0}, ALL),
    ("gamma", {"gamma": 1.5}, ALL),
    ("n_spins", {"n_spins": 0}, ALL),
    ("initial.theta", {"initial": {"theta": 4.0, "phi": 0.0}}, {"evolve", "compare-pulsed"}),
    ("initial.phi", {"initial": [1.0, 7.0]}, {"evolve", "compare-pulsed"}),
    ("axis", {"axis": "w"}, {"design", "noise", "scaling"}),
    ("branch", {"branch": "C"}, {"design", "noise", "scaling", "compare-pulsed"}),
    ("max_step", {"max_step": -1.0}, PULSED),
    ("cycles", {"cycles": 0}, {"noise"}),
    ("total_time", {"total_time": -3.0}, {"noise"}),
    ("horizon", {"horizon": -1.0}, TRACED),
    ("grid_points", {"grid_points": 50}, TRACED | {"scaling"}),
    ("seed", {"seed": -1}, {"noise"}),
    ("gammas", {"gammas": []}, {"sweep-gamma"}),
    ("gammas[0]", {"gammas": [0.9]}, {"sweep-gamma"}),
    ("variants", {"variants": []}, {"scaling"}),
    ("n_grid[1]", {"n_grid": [4, 0]}, {"scaling"}),
    ("theta_points", {"theta_points": 1}, {"sweep-initial-state"}),
    ("n_runs", {"n_runs": 0}, {"noise"}),
    ("workers", {"workers": 0}, {"sweep-initial-state", "noise"}),
    ("relative_sigma", {"relative_sigma": -0.1}, {"noise"}),
    ("channel", {"channel": "laser"}, {"noise"}),
]


@pytest.mark.parametrize("field, bad, readers", BAD_VALUES, ids=[row[0] for row in BAD_VALUES])
def test_a_value_is_refused_only_by_the_commands_that_read_it(
    tmp_path, monkeypatch, capsys, field, bad, readers
):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(SMALL, **bad)))
    for command in sorted(ALL):
        out = f"out-{command}"
        code = main([command, "--config", str(path), "--out", out])
        err = capsys.readouterr().err
        if command in readers:
            assert code == 2 and f": {field}: " in err, (command, err)
            assert not (tmp_path / out).exists(), command
        else:
            assert code == 0, (command, err)


@pytest.mark.parametrize("field, bad, readers", BAD_VALUES, ids=[row[0] for row in BAD_VALUES])
def test_the_config_check_holds_no_value_rule(field, bad, readers):
    # well typed, so the config check passes it on to whatever reads it
    for experiment in sorted(ALL):
        validate_config(dict(SMALL, experiment=experiment, **bad))
