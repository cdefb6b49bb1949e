import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import lmgsqueeze
from lmgsqueeze import algebra, metrics
from lmgsqueeze.algebra import TRACE_BLOCKS
from lmgsqueeze.cli import MAX_WORKERS, main, parse_config, run, trace_bytes, validate_config
from lmgsqueeze.errors import ConfigError, TooLarge
from lmgsqueeze.experiments import sweep_bytes

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
    cfg = parse_config(json.dumps(MINIMAL))
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


def test_range_violations_name_field():
    with pytest.raises(ConfigError) as err:
        validate_config(dict(MINIMAL, gamma=1.5))
    assert "gamma" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate_config(dict(MINIMAL, initial={"theta": 4.0, "phi": 0.0}))
    assert "theta" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate_config(dict(MINIMAL, n_spins=0))
    assert "n_spins" in str(err.value)


NOISE = dict(MINIMAL, experiment="noise", channel="pulse_separation", relative_sigma=0.1)
COUPLED = {"experiment": "evolve", "n_spins": 10}


@pytest.mark.parametrize(
    "raw,field",
    [
        (dict(NOISE, relative_sigma="abc"), "relative_sigma"),
        (dict(NOISE, relative_sigma=math.nan), "relative_sigma"),
        (dict(NOISE, total_time=0), "total_time"),
        (dict(NOISE, total_time=math.inf), "total_time"),
        (dict(COUPLED, coupling=[1, 0, 0, 0, "x", 0, 0, 0, 0]), "coupling[4]"),
        (dict(COUPLED, coupling=[1, 0, 0, 0, math.nan, 0, 0, 0, 0]), "coupling[4]"),
        (dict(MINIMAL, chi=math.nan), "chi"),
        (dict(MINIMAL, n_spins=math.inf), "n_spins"),
        (dict(MINIMAL, horizon=math.inf), "horizon"),
        (dict(MINIMAL, horizon=0), "horizon"),
        (dict(MINIMAL, max_step=math.inf), "max_step"),
        (dict(MINIMAL, initial={"theta": math.nan, "phi": 0.0}), "initial.theta"),
    ],
)
def test_non_finite_and_non_positive_values_name_field(raw, field):
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert str(err.value).startswith(f"{field}: ")


def test_workers_above_maximum_refused():
    assert MAX_WORKERS == 64
    assert validate_config(dict(MINIMAL, workers=64))["workers"] == 64
    for workers in (65, 10**6):
        with pytest.raises(ConfigError) as err:
            validate_config(dict(MINIMAL, workers=workers))
        assert str(err.value).startswith("workers: ")


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
    # memory for exactly the blocks of 1000 trace samples at N = 100
    n, k = 100, 1000
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": TRACE_BLOCKS * 16 * k * (n + 1)}
    monkeypatch.setattr(algebra.os, "sysconf", memory.__getitem__)
    cfg = dict(MINIMAL, experiment="evolve", n_spins=n)
    assert validate_config(dict(cfg, grid_points=k))["grid_points"] == k
    with pytest.raises(TooLarge):
        validate_config(dict(cfg, grid_points=k + 1))
    # scaling's largest N sets the size of its chunked scan
    memory["SC_PHYS_PAGES"] = trace_bytes("scaling", n, k)
    scaling = dict(cfg, experiment="scaling", grid_points=k)
    assert validate_config(dict(scaling, n_grid=[10, n]))["n_grid"] == [10, n]
    with pytest.raises(TooLarge):
        validate_config(dict(scaling, n_grid=[10, n + 1]))

    memory["SC_PHYS_PAGES"] = sweep_bytes(40, 30)
    cfg = dict(cfg, experiment="sweep-initial-state")
    assert validate_config(dict(cfg, theta_points=40, phi_points=30))["theta_points"] == 40
    with pytest.raises(TooLarge):
        validate_config(dict(cfg, theta_points=41, phi_points=30))


@pytest.mark.parametrize("experiment", ["sweep-gamma", "scaling", "sweep-initial-state", "evolve"])
def test_chunked_scans_are_sized_by_their_chunk(monkeypatch, experiment):
    # 8 GiB of memory: 10^6 samples at N = 100 fit a scan that holds
    # SCAN_CHUNK columns of states at a time, not six whole-grid blocks
    memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2**33}
    monkeypatch.setattr(algebra.os, "sysconf", memory.__getitem__)
    cfg = dict(MINIMAL, experiment=experiment, n_spins=100, n_grid=[50, 100], grid_points=10**6)
    if experiment == "evolve":
        with pytest.raises(TooLarge):
            validate_config(cfg)
    else:
        assert validate_config(cfg)["grid_points"] == 10**6


@pytest.mark.parametrize("experiment", ["compare-pulsed", "noise", "design"])
def test_a_grid_the_experiment_never_reads_is_not_sized(monkeypatch, experiment):
    # compare-pulsed samples its z cycle grid, sized with its schedule, and
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
        # a grid of negative counts is malformed, not too large
        ({"theta_points": -(10**5), "phi_points": -(10**5)}, "theta_points: must be >= 0"),
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
            parse_config(json.dumps(config))
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
