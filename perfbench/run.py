"""Benchmark of the lmgsqueeze CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (workloads.py) are fixed lists of CLI experiments, built from
the seed alone and run closed-loop by one client: each experiment starts
when the previous one has written its files. Every repetition runs in a
fresh interpreter (execute.py), so module caches start empty and its peak
RSS belongs to that workload alone. Repetitions are started while they are
expected to end within S seconds; medians are reported.

With --trace 0 the last line of stdout reports the end-to-end metrics:

- wall_s: seconds from the first CLI call to the last file written;
- setup_s: seconds for a fresh interpreter to run
  ``python -m lmgsqueeze design --chi 1 --gamma 0.1`` (imports plus config
  validation, paid by every CLI call);
- peak_rss_mb: ru_maxrss of the process that ran the workload.

Failed experiment calls (non-zero exit, missing table, failed output
check) are reported as ``failed`` out of ``attempted``; their ratio is the
fail ratio. With --trace 1 one untraced repetition is followed by traced
ones; the run reports the per-layer metrics of tracing.py, the tracing
overhead (traced minus untraced wall_s), and fails every call whose files
differ by a byte between the traced and the untraced repetition.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")

from workloads import DEFAULT_SEED, EXPECTED_SPANS, WORKLOADS, make_workload  # noqa: E402

SETUP_RUNS = 5
SETUP_COMMAND = ("-m", "lmgsqueeze", "design", "--chi", "1", "--gamma", "0.1")
# Every child process is stopped by this many seconds after the start, so
# that a run ends within 180 s even if the program hangs.
DEADLINE_S = 170.0
STARTED = time.monotonic()


def _remaining():
    return max(1.0, DEADLINE_S - (time.monotonic() - STARTED))


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def measure_setup(workdir):
    """Seconds for one fresh ``design`` call, or None if it failed."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *SETUP_COMMAND],
            cwd=workdir,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=_remaining(),
        )
    except subprocess.TimeoutExpired:
        return None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith("axis=z branch=A"):
        sys.stderr.write(proc.stderr)
        return None
    return elapsed


def run_repetition(workload, seed, workdir, traced):
    """Run one repetition in a child process and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "execute.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--dir", workdir] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=_remaining()
        )
    except subprocess.TimeoutExpired:
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def differing_outputs(experiments, dir_a, dir_b):
    """Tags of the experiments whose output files differ between two runs."""
    differ = []
    for exp in experiments:
        a, b = os.path.join(dir_a, exp.tag), os.path.join(dir_b, exp.tag)
        names = sorted(os.listdir(a)) if os.path.isdir(a) else []
        if not names or names != (sorted(os.listdir(b)) if os.path.isdir(b) else []):
            differ.append(exp.tag)
            continue
        for name in names:
            with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                if fa.read() != fb.read():
                    differ.append(exp.tag)
                    break
    return differ


def run_repetitions(workload, seed, workdir, seconds, trace):
    """Repetitions of the workload; with ``trace`` the first is untraced and
    the rest traced.

    A repetition starts only if, at the mean pace so far, it would end less
    than half a repetition past the time budget, so the count of repetitions
    is the one that best fills it.
    """
    reps = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= 1 + trace and elapsed * (len(reps) + 0.5) / len(reps) > seconds:
            return reps
        traced = trace and len(reps) > 0
        rep_dir = os.path.join(workdir, f"rep{len(reps)}")
        result = run_repetition(workload, seed, rep_dir, traced)
        if result is None:
            n = len(make_workload(workload, seed))
            result = {"attempted": n, "failed": n, "problems": [f"{rep_dir}: child process failed"]}
        result.update(traced=traced, dir=rep_dir)
        reps.append(result)


def per_layer(workload, experiments, reps, problems):
    """Median per-layer metrics of the traced repetitions, and the tracing
    overhead against the untraced first one. Adds to ``problems`` and
    returns the count of calls whose output differs from the untraced run."""
    untraced, traced = reps[0], [r for r in reps[1:] if "layers" in r]
    differing = 0
    for rep in reps[1:]:
        differ = differing_outputs(experiments, untraced["dir"], rep["dir"])
        differing += len(differ)
        problems += [f"{rep['dir']}/{tag}: output differs from the untraced run" for tag in differ]
    for rep in traced:
        unreached = [s for s in EXPECTED_SPANS[workload] if not rep["layers"][f"{s}_calls"]]
        problems += [f"{rep['dir']}: no {name} span" for name in unreached]
    if not traced or "wall_s" not in untraced:
        return {}, differing
    layers = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced["wall_s"]
    return layers, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lmgsqueeze benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "lmgsqueeze", "__init__.py")):
        print(f"error: no lmgsqueeze sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workdir = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    experiments = make_workload(args.workload, args.seed)

    measure_setup(workdir)  # warm the page cache and the bytecode cache
    setup = [measure_setup(workdir) for _ in range(SETUP_RUNS)]
    problems = ["setup: design call failed"] if None in setup else []
    setup = [s for s in setup if s is not None]

    reps = run_repetitions(args.workload, args.seed, workdir, args.seconds, bool(args.trace))
    for rep in reps:
        problems += rep["problems"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        values, differing = per_layer(args.workload, experiments, reps, problems)
        failed += differing
        wanted = spec["per_layer"]
    else:
        ok = [r for r in reps if "wall_s" in r]
        values = {}
        if ok:
            values["wall_s"] = statistics.median(r["wall_s"] for r in ok)
            values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in ok)
        if setup:
            values["setup_s"] = statistics.median(setup)
        wanted = spec["end_to_end"]
    problems += [f"metric {m['name']} not measured" for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_runs_s": setup,
        "repetitions": reps,
        "problems": problems,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
    }
    with open(os.path.join(workdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
