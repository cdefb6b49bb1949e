"""Tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import execute  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_SWEEP = workloads.Experiment(
    "sweep",
    "sweep-initial-state",
    {
        "chi": 1.0,
        "gamma": 0.1,
        "n_spins": 20,
        "theta_points": 9,
        "phi_points": 8,
        "grid_points": 300,
        "workers": 1,
    },
    ("grid", "argmin"),
)


def test_workload_is_a_pure_function_of_the_seed():
    random.seed(123)
    expected = random.random()
    random.seed(123)
    for name in workloads.WORKLOADS:
        assert workloads.make_workload(name, 7) == workloads.make_workload(name, 7)
    assert random.random() == expected  # the global RNG was not consumed

    gammas = {workloads.make_workload("sweep_n100", seed)[0].config["gamma"] for seed in range(20)}
    assert len(gammas) == 20
    assert all(abs(g - workloads.GAMMA_REF) <= workloads.GAMMA_HALF_BAND for g in gammas)
    for exp in workloads.make_workload("noise_n100", 5):
        assert exp.config["seed"] == 5


def test_self_times_sum_to_root_span(tmp_path):
    from lmgsqueeze import cli, metrics, propagate

    original = propagate.evolve_batch
    model = ["--chi", "1", "--gamma", "0.1", "--n-spins", "20"]
    noise = ["--channel", "pulse_phase", "--relative-sigma", "0.1", "--n-runs", "1"]

    def workload():
        assert cli.main(["compare-pulsed", *model, "--out", str(tmp_path / "out")]) == 0
        assert cli.main(["noise", *model, *noise, "--out", str(tmp_path / "noise")]) == 0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.span("root", workload)
    finally:
        tracer.uninstall()
    assert metrics.evolve_batch is original and propagate.evolve_batch is original

    def callers(name):
        return {tracer.spans[span[3]][0] for span in tracer.spans if span[0] == name}

    # evolve_batch is bound in metrics and experiments (whose functions are
    # not traced, so their calls hang off the root); rotate_state and
    # trace_from_states are also imported inside function bodies
    assert {"metrics.minimize_hamiltonian", "root"} <= callers("propagate.evolve_batch")
    assert {"propagate.run_schedule", "experiments.noise_monte_carlo"} <= callers("states.rotate_state")
    assert "propagate.run_schedule" in callers("metrics.trace_from_states")

    root = tracer.spans[0]
    assert root[0] == "root" and root[3] == -1
    total_self = sum(seconds for seconds, _ in tracer.self_times().values())
    resolution = time.get_clock_info("perf_counter").resolution
    assert abs(total_self - (root[2] - root[1])) <= max(resolution, 1e-9) * len(tracer.spans)
    layer = tracer.metrics()
    assert math.isclose(sum(v for k, v in layer.items() if k.endswith("_share")), 1.0, rel_tol=1e-9)
    assert layer["states.rotate_state_calls"] > 0 and layer["propagate.schedule_cycles"] > 0
    assert layer["experiments.io_bytes"] == sum(
        os.path.getsize(tmp_path / out / name)
        for out in ("out", "noise")
        for name in os.listdir(tmp_path / out)
    )


def test_broken_check_raises_fail_ratio(tmp_path, monkeypatch):
    result = execute.execute((SMALL_SWEEP,), str(tmp_path / "ok"))
    assert result["failed"] == 0, result["problems"]

    monkeypatch.setattr(workloads, "SWEEP_OPTIMA", ((math.pi / 4.0, math.pi / 4.0),))
    result = execute.execute((SMALL_SWEEP,), str(tmp_path / "broken"))
    assert result["failed"] / result["attempted"] > 0


def test_reference_comparison_catches_a_changed_value(tmp_path):
    out = tmp_path / "run"
    execute.execute((SMALL_SWEEP,), str(out))
    reference = tmp_path / "reference"
    shutil.copytree(out / "sweep", reference)
    workloads.check_experiment(SMALL_SWEEP, str(out / "sweep"), {}, str(reference))

    grid = (reference / "grid.csv").read_text().splitlines()
    i = next(i for i, line in enumerate(grid[1:], 1) if 0.0 < float(line.split(",")[2]) < 1.0)
    row = grid[i].split(",")
    row[2] = repr(float(row[2]) * (1.0 + 1e-6))
    grid[i] = ",".join(row)
    (reference / "grid.csv").write_text("\n".join(grid) + "\n")
    try:
        workloads.check_experiment(SMALL_SWEEP, str(out / "sweep"), {}, str(reference))
    except workloads.CheckFailed:
        return
    raise AssertionError("a xi2 change of 1e-6 passed the reference comparison")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_n100", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")
