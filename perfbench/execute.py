"""One repetition of a benchmark workload, in a fresh interpreter.

Usage (from the repository root; normally started by run.py):

    python3 perfbench/execute.py --workload sweep_n100 --seed 0 --dir DIR [--trace]

Writes each experiment's config into DIR, runs the experiments one after
another through ``lmgsqueeze.cli.main`` with DIR as working directory,
checks the CSVs they wrote and prints one JSON line: wall time from the
first CLI call to the last file written, peak RSS of this process, calls
attempted and failed, and with --trace the per-layer metrics (the spans go
to DIR/spans.json).
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")

from workloads import DEFAULT_SEED, WORKLOADS, CheckFailed, check_experiment, make_workload  # noqa: E402


def execute(experiments, workdir, tracer=None, reference_dir=None):
    """Run ``experiments`` in ``workdir`` and check their outputs.

    ``reference_dir``, when given, holds one directory per experiment tag
    with the CSVs to compare against.
    """
    from lmgsqueeze import cli

    os.makedirs(workdir, exist_ok=True)
    for exp in experiments:
        with open(os.path.join(workdir, f"{exp.tag}.json"), "w") as fh:
            json.dump(exp.config, fh, indent=2, sort_keys=True)

    def run_all():
        codes = []
        for exp in experiments:
            argv = [exp.command, "--config", f"{exp.tag}.json", "--out", exp.tag]
            codes.append(tracer.span("cli.main", cli.main, argv) if tracer else cli.main(argv))
        return codes

    previous = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        codes = tracer.span("bench.workload", run_all) if tracer else run_all()
        wall_s = time.perf_counter() - start
    finally:
        os.chdir(previous)

    problems = []
    shared = {}
    for exp, code in zip(experiments, codes):
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            reference = None if reference_dir is None else os.path.join(reference_dir, exp.tag)
            check_experiment(exp, os.path.join(workdir, exp.tag), shared, reference)
        except CheckFailed as exc:
            problems.append(f"{exp.tag}: {exc}")
    return {
        "wall_s": wall_s,
        "attempted": len(experiments),
        "failed": len(problems),
        "problems": problems,
    }


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    experiments = make_workload(args.workload, args.seed)
    reference_dir = None
    if args.seed == DEFAULT_SEED:
        reference_dir = os.path.join(REFERENCE_DIR, args.workload)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = execute(experiments, args.dir, tracer, reference_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(os.path.join(args.dir, "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
