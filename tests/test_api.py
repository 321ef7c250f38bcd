"""The exported names: a pinned list, each of which resolves."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hyperspin
from hyperspin import orbits

EXPORTED = [
    "IsotropyReport",
    "OrbitPartition",
    "OrbitRecord",
    "ReductionTrace",
    "SelfCheckError",
    "SpinMatrix",
    "Word",
    "apply_generator",
    "apply_word",
    "arf",
    "canonical_form",
    "census",
    "class_index",
    "enumerate_orbits",
    "fixed_matrices",
    "fixed_point_matrix",
    "flip_word",
    "format_word",
    "generator_class",
    "predicted_orbit_size",
    "predicted_stabilizer_order",
    "reduce_to_canonical",
    "sp_transvection_orbits",
    "stabilizer_form",
    "verify_isotropy",
]


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 25
    assert sorted(hyperspin.__all__) == sorted(EXPORTED)
    assert len(set(hyperspin.__all__)) == len(hyperspin.__all__)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from hyperspin import *", namespace)
    assert set(hyperspin.__all__) <= set(namespace)


ORBIT_NAMES = [
    "IsotropyReport",
    "OrbitPartition",
    "OrbitRecord",
    "census",
    "enumerate_orbits",
    "fixed_matrices",
    "predicted_orbit_size",
    "predicted_stabilizer_order",
    "sp_transvection_orbits",
    "verify_isotropy",
]


def test_orbit_names_are_read_from_orbits_on_each_access(monkeypatch):
    # the package resolves them lazily and binds none of them, so a patch
    # of hyperspin.orbits shows through the package name at once
    assert set(ORBIT_NAMES) <= set(EXPORTED)
    for name in ORBIT_NAMES:
        assert getattr(hyperspin, name) is getattr(orbits, name), name
        assert name not in vars(hyperspin), name
    sentinel = object()
    monkeypatch.setattr(orbits, "census", sentinel)
    assert hyperspin.census is sentinel
    assert set(hyperspin.__all__) <= set(dir(hyperspin))


def test_unknown_package_names_fail_as_missing():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperspin.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from hyperspin import no_such_name", {})
    # a submodule the package has not bound still imports by name
    namespace = {}
    exec("from hyperspin import cli", namespace)
    assert namespace["cli"] is importlib.import_module("hyperspin.cli")


def test_the_tracer_leaves_no_wrapper_on_the_package_names():
    tracing = _perfbench_module("tracing")
    tracer = tracing.Tracer().install()
    try:
        assert hasattr(hyperspin.enumerate_orbits, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(hyperspin.enumerate_orbits, "__wrapped__")
    assert hyperspin.enumerate_orbits is orbits.enumerate_orbits


SYMBOLIC_PATH = """
import random, sys
import hyperspin as hs

rng = random.Random(38)
g = 64
matrix = hs.SpinMatrix(g, rng.getrandbits(g), rng.getrandbits(g))
trace = hs.reduce_to_canonical(matrix, record=True)
assert len(trace.lines()) == len(trace.steps) > 0
assert hs.apply_word(matrix, trace.total_word) == trace.result
assert hs.class_index(matrix) == trace.class_index
m = trace.class_index
assert hs.canonical_form(g, m) == trace.result
assert hs.arf(hs.stabilizer_form(g, m)) == hs.arf(trace.result) == m % 2
assert hs.fixed_point_matrix(g) is None and hs.fixed_point_matrix(g + 1) is not None
assert hs.arf(hs.apply_word(matrix, hs.flip_word(g))) == hs.arf(matrix)
assert "numpy" not in sys.modules, "the symbolic path loaded numpy"
assert hs.enumerate_orbits(3).sizes() == {0: 35, 9: 28, 47: 1}
assert "numpy" in sys.modules
"""


def test_the_symbolic_path_loads_no_numpy():
    # a fresh interpreter, since this one has loaded numpy already
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", SYMBOLIC_PATH],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr


def test_the_package_defines_two_exception_classes():
    # one internal-failure type for every self-check, one for bad arguments
    defined = set()
    for info in pkgutil.iter_modules(hyperspin.__path__):
        module = importlib.import_module(f"hyperspin.{info.name}")
        for name, value in vars(module).items():
            if (
                inspect.isclass(value)
                and issubclass(value, BaseException)
                and value.__module__ == module.__name__
            ):
                defined.add(f"{info.name}.{name}")
    assert defined == {"normalform.SelfCheckError", "cli.UsageError"}
    assert hyperspin.SelfCheckError is hyperspin.orbits.SelfCheckError


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer wraps these functions by name and refuses to run
    # without one; tier-1 does not collect perfbench, so check them here
    tracing = _perfbench_module("tracing")
    for layer, (module_name, functions) in tracing.LAYERS.items():
        module = importlib.import_module(f"hyperspin.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), (layer, name)


def test_benchmark_reads_results_as_it_expects(monkeypatch):
    # the benchmark reduces with record=True and replays total_word, its
    # tracer counts len(result.steps) and result.labels.size, and its tests
    # rebuild a trace from (start, steps, class_index) with a wrong class
    start = hyperspin.SpinMatrix.from_text("11111/10111")
    trace = hyperspin.reduce_to_canonical(start, record=True)
    built = []
    post_init = hyperspin.SpinMatrix.__post_init__
    monkeypatch.setattr(
        hyperspin.SpinMatrix, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    assert len(trace.steps) == 2 and built == []
    assert hyperspin.ReductionTrace(trace.start, trace.steps, trace.class_index) == trace
    wrong = hyperspin.ReductionTrace(trace.start, trace.steps, trace.class_index + 1)
    replayed = hyperspin.apply_word(start, wrong.total_word)
    assert replayed == hyperspin.canonical_form(5, 2) != wrong.result
    problem = _perfbench_module("checks").check_reduction(
        str(start), wrong.class_index, str(wrong.result), str(replayed)
    )
    assert problem == "class 3, closed form says 2"
    assert hyperspin.enumerate_orbits(3).labels.size == 64


def test_every_imported_name_is_used():
    # the project runs no linter; an import left behind by a deleted helper
    # fails here.  __init__.py imports names to re-export them
    for path in sorted(Path(hyperspin.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, (path.name, sorted(imported - used))


def test_every_module_level_definition_is_used():
    # a helper whose last caller was deleted fails here.  The exported names
    # are used from outside; apply_generator_keys only by the benchmark tracer
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(hyperspin.__file__).parent.glob("*.py"))
    }
    used = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    exempt = {*hyperspin.__all__, "apply_generator_keys"}
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        defined = {
            node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined - used - exempt, (name, sorted(defined - used - exempt))


def _hyperspin_imports(tree):
    """The names a module imports from hyperspin and its submodules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hyperspin":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "hyperspin")
    return names


# the scalar twist reference: the transvection formula on (a, b) words
SCALAR_REFERENCE = {"HomologyClass", "intersection", "evaluate", "dehn_twist"}


def test_the_oracles_stay_independent_of_the_program():
    # each file's docstring says what it shares with the program; the
    # scalar twist reference, the branch-subset classifier, the column walk
    # and the benchmark's checks share nothing
    root = Path(__file__).resolve().parents[1]
    oracles = ast.parse((root / "tests" / "oracles.py").read_text())
    shared = _hyperspin_imports(oracles)
    assert shared == {"SelfCheckError", "twist_keys"}
    independent = SCALAR_REFERENCE | {
        "_parity", "weierstrass_subset", "weierstrass_class", "rightmost_equal_pair"
    }
    definitions = [
        node
        for node in oracles.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in independent
    ]
    assert {node.name for node in definitions} == independent
    for definition in definitions:
        used = {node.id for node in ast.walk(definition) if isinstance(node, ast.Name)}
        assert not used & shared, definition.name
    checks = ast.parse((root / "perfbench" / "checks.py").read_text())
    assert _hyperspin_imports(checks) == set()


def test_the_scalar_twist_reference_is_test_only():
    # the program twists packed keys only; no module defines or imports
    # the reference, so it cannot become a second program path
    for path in sorted(Path(hyperspin.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        assert not names & SCALAR_REFERENCE, (path.name, sorted(names & SCALAR_REFERENCE))
