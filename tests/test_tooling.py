"""The test configuration and the source tree: a failing property test must
still report the example that broke it under the repo's pytest settings, the
package must import nothing it does not use, every dense eigensolve must go
through the one checked entry point, dense bases must be only the
coherent-state generator, the effective Hamiltonian and the one real x
basis, that generator must be factored only where a space's states are
prepared, evolution and the minimum search must take a factored basis, every
exponential must be formed in the one propagation kernel, pulses must be
applied only by the segment executor, moments of a batch of states must
come from its bands (dense Sx and Sy products only in the golden-section
objective), a space must keep no dense complex operator (every caller of
collective_operator named), pulse pairs must be toggled only by the one
cycle realizer, a dim^2 identity must be formed only for a dense matrix
that is itself the result, memory must be checked only where it is allocated, every scan grid
built by the one scan_times, every grid size and worker count refused before
a space is built, the CLI's number check must hold no range rule, every
package name but four documented entry points must be used by the package
itself, every function the benchmark traces must exist, each benchmark workload
must reach the spans its traced run expects, the README's library
example must run, numpy must be the one runtime dependency, and a CLI run
must load neither scipy, nor the process pool, nor numpy.random."""

import ast
import importlib
import importlib.util
import json
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "lmgsqueeze"
PERFBENCH = ROOT / "perfbench"
README = ROOT / "README.md"

FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads.

    Names listed in ``__all__`` and imports marked ``# noqa: F401`` on any of
    their lines are exempt; a read anywhere in the module counts as a use.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                unused.append((node.lineno, name))
    return unused


def test_unused_import_scan_finds_and_exempts():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from math import (\n    pi,\n    tau,\n)\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f():\n    from re import compile\n    return pi\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "tau"), (10, "compile")]


def test_package_has_no_unused_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def calls_named(source: str, name: str) -> list:
    """(enclosing function, line) of each call to a function named ``name``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if getattr(callee, "attr", getattr(callee, "id", None)) == name:
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_dense_eigensolves_go_through_hamiltonian_eig():
    # hamiltonian_eig checks Hermiticity before it calls np.linalg.eigh; the
    # only other eigensolves are the real parity blocks of a quadratic form,
    # which of_quadratic_form checks itself
    sample = "def f(a):\n    return np.linalg.eigh(a)\neigh(b)\n"
    assert calls_named(sample, "eigh") == [("f", 2), (None, 3)]
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "eigh")
    }
    assert found == {
        ("algebra.py", "hamiltonian_eig"),
        ("algebra.py", "of_quadratic_form"),
    }


def test_dense_bases_are_only_the_coherent_generators_h_eff_and_the_real_x_basis():
    # every rotation about x or y goes through the one real basis of Sx (a y
    # rotation between quarter turns about z), so no complex axis basis and
    # no eigensolve of n.S is built; the azimuth-0 coherent-state generator
    # and the effective Hamiltonian are the only dense complex bases left
    from lmgsqueeze.algebra import build_space
    from lmgsqueeze.states import _x_eig

    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "of")
    }
    assert found == {
        ("states.py", "coherent_generator_eig"),
        ("states.py", "_x_eig"),
        ("experiments.py", "predicted_optimal_time"),
    }
    (block,) = _x_eig(build_space(6)).blocks
    assert block.v.dtype.kind == "f"  # real


def test_one_coherent_generator_is_factored_per_space_and_caller():
    # every azimuth is a z phase on the azimuth-0 state, so the generator is
    # factored only by coherent_state's default and by the three experiments
    # that hand one to all of their states of a space; none is factored per
    # azimuth
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "coherent_generator_eig")
    }
    assert found == {
        ("states.py", "coherent_state"),
        ("experiments.py", "sweep_initial_state"),
        ("experiments.py", "compare_pulsed"),
        ("experiments.py", "scaling_study"),
    }


def test_the_kernel_takes_a_basis_and_factors_nothing():
    # every eigensolve is a visible basis build where the basis is made;
    # evolution and the minimum search only apply the basis they are given
    builds = ("of", "of_quadratic_form", "model_eigenbasis", "hamiltonian_eig", "eigh")
    for module, name in (
        ("propagate.py", "evolve"),
        ("propagate.py", "evolve_batch"),
        ("metrics.py", "minimize_hamiltonian"),
        ("metrics.py", "_scan"),
    ):
        source = (PACKAGE / module).read_text()
        (function,) = [
            node
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        body = ast.get_source_segment(source, function)
        assert [call for build in builds for call in calls_named(body, build)] == [], name


def test_exponentials_are_formed_only_in_the_kernel():
    # every exponential of an eigenbasis is formed in the Eigenbasis kernel:
    # its phase table and its propagate; the other is the diagonal z phase
    # of rotate_state, and a BandedForm's Taylor series forms none; dense
    # propagators are these applied to np.eye
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "exp")
    }
    assert found == {
        ("algebra.py", "phases"),
        ("algebra.py", "propagate"),
        ("states.py", "rotate_state"),
    }


def test_banded_forms_serve_only_the_per_segment_noise_forms():
    # a BandedForm is applied once, so only the forms a noise run draws anew
    # for each segment use it, and every Hamiltonian applied more than once
    # keeps its Eigenbasis; the banded kernel, and every function of its
    # module that it names, forms no eigensolve and no exponential
    found = [
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, line in calls_named(path.read_text(), "BandedForm")
    ]
    (block,) = [
        node
        for node in ast.parse((PACKAGE / "experiments.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_noise_block"
    ]
    assert found
    assert all(
        name == "experiments.py" and block.lineno <= line <= block.end_lineno
        for name, line in found
    )
    source = (PACKAGE / "algebra.py").read_text()
    defs = {
        node.name: ast.get_source_segment(source, node)
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached, pending = set(), ["BandedForm"]
    while pending:
        name = pending.pop()
        reached.add(name)
        named = {node.id for node in ast.walk(ast.parse(defs[name])) if isinstance(node, ast.Name)}
        pending += sorted((named & set(defs)) - reached)
    assert {"_taylor_degree", "_frozen"} <= reached
    for name in reached:
        assert calls_named(defs[name], "eigh") == [] and calls_named(defs[name], "exp") == [], name


def test_pulses_are_applied_only_by_the_segment_executor():
    # nominal x/y pulse pairs are rewritten into free segments, never applied
    # on the side: rotate_state runs only in the executor's cycle step and in
    # the dense rotation matrix built from it
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "rotate_state")
    }
    assert found == {("propagate.py", "_apply_cycle"), ("states.py", "rotation")}


def test_dense_identities_are_formed_only_for_dense_propagators():
    # a dim^2 identity is formed only where a dense matrix is the result, a
    # rotation matrix; the schedule executor builds each parity half from a
    # (dim/2)^2 identity
    sample = "def f(space):\n    return np.eye(space.dim, dtype=complex), np.eye(3)\n"
    assert dim_identities(sample) == [("f", 2)]
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in dim_identities(path.read_text())
    }
    assert found == {("states.py", "rotation")}


def dim_identities(source: str) -> list:
    """(enclosing function, line) of each ``eye`` call whose first argument
    is ``<name>.dim``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "eye"
            and node.args
            and getattr(node.args[0], "attr", None) == "dim"
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_moments_come_from_bands_except_in_the_golden_objective():
    # every batch of states is reduced through its three bands; the dense
    # Sx and Sy products survive only in the golden-section objective, whose
    # bits the recorded refined times follow, and nowhere else in metrics
    source = (PACKAGE / "metrics.py").read_text()
    found = {
        (path.name, function, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, line in calls_named(path.read_text(), "_operator_moments")
    }
    (search,) = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "minimize_hamiltonian"
    ]
    assert [(name, function) for name, function, _ in found] == [("metrics.py", "objective")]
    assert all(search.lineno <= line <= search.end_lineno for _, _, line in found)
    assert {function for function, _ in calls_named(source, "collective_operator")} == {
        "minimize_hamiltonian"
    }
    assert {function for function, _ in calls_named(source, "_batch_moments")} == {
        "batch_squeezing"
    }


def test_no_space_keeps_a_dense_complex_operator():
    # collective_operator builds a fresh matrix on every call and the space
    # keeps none; each caller holds its copy only while it uses it, so a new
    # cache or a new holder of dense Sx/Sy shows up here
    tree = ast.parse((PACKAGE / "algebra.py").read_text())
    (function,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "collective_operator"
    ]
    assert calls_named(ast.unparse(function), "built") == []
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "collective_operator")
    }
    assert found == {
        ("algebra.py", "square_bands"),
        ("metrics.py", "minimize_hamiltonian"),
        ("states.py", "coherent_generator_eig"),
        ("states.py", "_x_eig"),
    }


def test_one_squeezing_kernel_serves_the_batches_and_the_golden_objective():
    # every xi^2 goes through metrics._squeezing: batch_squeezing for the
    # band moments and the golden objective for its operator moments
    found = [
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "_squeezing")
    ]
    assert sorted(found) == [("metrics.py", "batch_squeezing"), ("metrics.py", "objective")]


def test_cycles_are_toggled_only_by_the_cycle_realizer():
    # one function makes a cycle as it is run: the noise runs step the cycle
    # it realized for them and re-derive no toggling frame of their own
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "toggled_cycle")
    }
    assert found == {("propagate.py", "realized_cycle")}


def test_memory_is_checked_only_where_it_is_allocated():
    # one owner per size limit: a space's dense operators, the two spaces a
    # noise run that draws its atom number holds, a trace of xi^2 samples, a
    # scan's time grid, and the objects of the initial-state sweep's grid;
    # the CLI parses values and sizes nothing
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "require_memory")
    }
    assert found == {
        ("algebra.py", "build_space"),
        ("metrics.py", "require_trace_memory"),
        ("metrics.py", "scan_times"),
        ("experiments.py", "sweep_initial_state"),
        ("experiments.py", "_noise_outcomes"),
    }
    cli = (PACKAGE / "cli.py").read_text()
    for name in ("require_memory", "require_trace_memory", "sweep_bytes"):
        assert calls_named(cli, name) == [], name


def test_only_whole_grid_scans_are_sized_as_every_state_held():
    # boundary states are scored as run_cycles yields them, so schedules and
    # noise Monte Carlos size chunked traces; only the scans that write every
    # row from one chunk (evolve's trace, compare-pulsed's reference traces)
    # are sized as every state held at once
    def every_sample(call):
        flags = [kw.value for kw in call.keywords if kw.arg == "every_sample"] + call.args[2:3]
        return ast.literal_eval(flags[0])

    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == (
                        "require_trace_memory"
                    ):
                        found[(path.name, node.name)] = every_sample(call)
    assert found == {
        ("experiments.py", "evolve_trace"): True,
        ("experiments.py", "compare_pulsed"): True,
        ("experiments.py", "sweep_initial_state"): False,
        ("experiments.py", "sweep_gamma"): False,
        ("experiments.py", "scaling_study"): False,
        ("experiments.py", "_noise_outcomes"): False,
        ("metrics.py", "minimize_over_time"): False,
        ("pulses.py", "schedule"): False,
    }


def test_every_scan_grid_is_built_by_scan_times():
    # one owner for the scan grid and its horizon, so no hand-built grid
    # can skip the horizon and grid_points rules or the memory check
    found = {
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, _ in calls_named(path.read_text(), "default_horizon")
    }
    assert found == {("metrics.py", "scan_times")}


def test_the_cli_number_check_holds_no_range_rule():
    # every range belongs to the library function that reads the value
    import inspect

    from lmgsqueeze import cli

    parameters = set(inspect.signature(cli._require_number).parameters)
    assert parameters.isdisjoint({"lo", "hi", "positive"}), parameters


def test_every_grid_and_worker_parameter_is_refused_before_a_space_is_built(monkeypatch):
    # every public function of experiments and metrics that takes grid_points
    # or workers is found by its signature, so a new one cannot skip the rule
    import inspect

    from lmgsqueeze import experiments, metrics
    from lmgsqueeze.canonical import from_chi_gamma
    from lmgsqueeze.errors import ConfigError, TooLarge
    from lmgsqueeze.pulses import design
    from lmgsqueeze.states import BlochAngles

    model = from_chi_gamma(1.0, 0.1, 10)
    arguments = {
        "model": model,
        "initial": BlochAngles(0.0, 0.0),
        "n_spins": 10,
        "gamma_grid": [0.1],
        "gamma": 0.1,
        "n_grid": [10, 20],
        "design_": design(model, "z"),
        "noise": experiments.NoiseSpec("chi", 0.1),
        "n_runs": 2,
        "seed": 0,
        "rate": 1.0,
        "horizon": None,
    }

    def unreached(n_spins):
        raise AssertionError("a space was built before the sizes were checked")

    for module in (experiments, metrics):
        monkeypatch.setattr(module, "build_space", unreached)
    checked = {"grid_points": set(), "workers": set()}
    for module in (experiments, metrics):
        for name, function in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(function):
                continue
            parameters = inspect.signature(function).parameters
            if function.__module__ != module.__name__ or not set(checked) & set(parameters):
                continue
            # a required grid_points (scan_times) takes the value under test
            names = [
                p
                for p, v in parameters.items()
                if v.default is inspect.Parameter.empty and p not in checked
            ]
            assert set(names) <= set(arguments), f"{name}: give sample values for {names}"
            required = {p: arguments[p] for p in names}
            if "grid_points" in parameters:
                with pytest.raises(TooLarge):
                    function(**required, grid_points=10**15)
                checked["grid_points"].add(name)
            if "workers" in parameters:
                for workers in (0, experiments.MAX_WORKERS + 1):
                    with pytest.raises(ConfigError, match=r"^workers: "):
                        function(**required, workers=workers)
                checked["workers"].add(name)
    assert checked["grid_points"] >= {
        "evolve_trace",
        "sweep_initial_state",
        "sweep_gamma",
        "scaling_study",
        "minimize_over_time",
        "scan_times",
    }
    assert checked["workers"] >= {"sweep_initial_state", "noise_monte_carlo"}


# documented entry points that no package module calls: the frame of
# canonicalization (README "Canonicalization"), the library's minimum search
# (README "Library"), xi^2 of one state, and the one statement of the sign
# convention that README's sign-flip paragraph describes
KEPT_ENTRY_POINTS = {"frame_unitary", "minimize_over_time", "squeezing_parameter", "LMGModel.sign"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(node) -> list:
    """The plain names an assignment statement binds: a module constant, or
    a class attribute or dataclass field."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and not _is_dunder(t.id)]


def unreferenced_definitions(sources: dict) -> set:
    """Module-level functions, classes and constants, and the non-dunder
    members of classes (methods, properties, fields and class attributes,
    as ``Class.member``), of ``sources`` (module name -> source) that no
    module refers to outside their own definition.  A module-level name is
    referred to as a Name, an Attribute or an import; a member only when
    some module reads it as an attribute (``x.member``, or a ``getattr``
    string), so a local variable that shares its name does not keep it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names, reads = [], []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((module, node.lineno, node.attr))
                if isinstance(node.ctx, ast.Load):
                    reads.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                names += [(module, node.lineno, alias.name) for alias in node.names]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                reads.append((module, node.lineno, node.args[1].value))
    definitions = []  # (label, name, node, module, the references that count)
    for module, tree in trees.items():
        for node in tree.body:
            definitions += [(name, name, node, module, names) for name in _assigned_names(node)]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions.append((node.name, node.name, node, module, names))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                members = _assigned_names(item)
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    members.append(item.name)
                definitions += [
                    (f"{node.name}.{member}", member, item, module, reads) for member in members
                ]
    return {
        label
        for label, name, node, module, references in definitions
        if not any(
            found == name and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, line, found in references
        )
    }


def test_no_test_only_name_in_the_package():
    # the package is what the experiments run: a name that only tests call
    # belongs with the tests (tests/oracles.py for reference implementations)
    sample = {
        "a": "LIMIT = 3\nUNUSED = 4\ndef used():\n    pass\ndef unused():\n    return unused()\n"
        "class C:\n    read: int\n    kept: int\n    unread: int\n"
        "    def __init__(self):\n        self.m()\n    def m(self):\n        pass\n"
        "    def n(self):\n        pass\n"
        "    @property\n    def p(self):\n        return self.unread\n"
        "    @property\n    def q(self):\n        pass\n",
        "b": "from a import used, LIMIT, C\n"
        "def f(c, p, q=1):\n    n = c.read + p + q\n    return getattr(c, 'kept'), n\n"
        "f(C(), LIMIT)\n",
    }
    assert unreferenced_definitions(sample) == {"UNUSED", "unused", "C.n", "C.p", "C.q"}
    sources = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert unreferenced_definitions(sources) == KEPT_ENTRY_POINTS


def test_benchmark_traced_names_exist():
    # a function renamed or deleted here would otherwise fail only in a
    # traced benchmark run; both files import only the standard library
    targets = runpy.run_path(str(PERFBENCH / "tracing.py"))["TARGETS"]
    expected = runpy.run_path(str(PERFBENCH / "workloads.py"))["EXPECTED_SPANS"]
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    spans = {span for _, _, span, _ in targets}
    assert {name for names in expected.values() for name in names} <= spans


def load_by_path(name: str):
    """The perfbench module ``name``, loaded from its file without a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reduced_configs(workloads, name: str) -> list:
    """(experiment, config) of each call of a benchmark workload, made
    smaller but run on the code paths of the full size."""
    experiments = workloads.make_workload(name, workloads.DEFAULT_SEED)
    smaller = {
        "noise_n100": {"n_runs": 2},
        # at N = 400 both schedules keep at least half_unitary_crossover
        # cycles (209 and 291 against 50), so they run as half unitaries as
        # at N = 1000 (239 and 333 against 125)
        "pulsed_n1000": {"n_spins": 400},
        "sweep_n100": {"theta_points": 5, "phi_points": 4},
    }[name]
    return [(exp, dict(exp.config, **smaller)) for exp in experiments]


@pytest.mark.parametrize("workload", ["sweep_n100", "pulsed_n1000", "noise_n100"])
def test_benchmark_workloads_reach_their_expected_spans(tmp_path, monkeypatch, workload):
    from lmgsqueeze import cli
    from lmgsqueeze.propagate import half_unitary_crossover

    tracing = load_by_path("tracing")
    workloads = load_by_path("workloads")
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for exp, config in reduced_configs(workloads, workload):
            (tmp_path / f"{exp.tag}.json").write_text(json.dumps(config))
            assert cli.main([exp.command, "--config", f"{exp.tag}.json", "--out", exp.tag]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    assert [span for span in workloads.EXPECTED_SPANS[workload] if not layers[f"{span}_calls"]] == []
    if workload == "pulsed_n1000":
        notes = json.loads((tmp_path / "pulsed" / "descriptor.json").read_text())["notes"]
        assert min(notes["cycles_z"], notes["cycles_y"]) >= half_unitary_crossover(401 // 2)


def run_python(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from src/."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src") + (os.pathsep + inherited if inherited else ""),
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd, env=env, timeout=300
    )


def test_readme_library_example_runs(tmp_path):
    library = README.read_text().split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    result = run_python(example, tmp_path)
    assert result.returncode == 0, result.stderr
    values = [float(word) for word in result.stdout.split()]
    assert values and all(math.isfinite(value) for value in values), result.stdout


def imported_modules(source: str) -> set:
    """Top-level names of the modules a source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_package_imports_no_scipy():
    sample = "import numpy as np\ndef f():\n    from scipy.linalg import eigh\n"
    assert imported_modules(sample) == {"numpy", "scipy"}
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "scipy" in imported_modules(path.read_text())
    ]
    assert found == []


def test_a_cli_run_leaves_scipy_unimported(tmp_path):
    script = (
        "import sys\n"
        "import lmgsqueeze, lmgsqueeze.cli\n"
        "assert lmgsqueeze.cli.main(['design', '--chi', '1', '--gamma', '0.1']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    result = run_python(script, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_a_cli_run_leaves_multiprocessing_unimported(tmp_path):
    # only a call with more than one worker starts processes, so only it
    # pays for importing the process pool; only a noise run draws, so only
    # it loads numpy.random (about 4 MB of peak RSS)
    script = (
        "import runpy, sys\n"
        "sys.argv = ['lmgsqueeze', 'design', '--chi', '1', '--gamma', '0.1']\n"
        "try:\n"
        "    runpy.run_module('lmgsqueeze', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
        "unused = {'multiprocessing', 'concurrent.futures.process', 'numpy.random'}\n"
        "print(sorted(unused & set(sys.modules)))\n"
    )
    result = run_python(script, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert [re.match(r"[\w.-]+", spec).group() for spec in project["dependencies"]] == ["numpy"]
