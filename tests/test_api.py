"""The exported names: a pinned list, each of which resolves."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import hyperspin

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
    # scalar twist reference, the branch-subset classifier and the
    # benchmark's checks share nothing
    root = Path(__file__).resolve().parents[1]
    oracles = ast.parse((root / "tests" / "oracles.py").read_text())
    shared = _hyperspin_imports(oracles)
    assert shared == {"SelfCheckError", "twist_keys"}
    independent = SCALAR_REFERENCE | {"_parity", "weierstrass_subset", "weierstrass_class"}
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
