"""The package imports only the standard library and itself, and keeps
its import light."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import adideals
from adideals import heisenberg as H
from adideals import lattice_count as L
from adideals import verify as V
from adideals.rootsys import AffineRoot, build


def _package_files():
    files = sorted(pathlib.Path(adideals.__file__).parent.glob("*.py"))
    assert files
    return files


def _imported_modules(nodes):
    """The module names of the Import and absolute ImportFrom nodes among nodes."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def _import_time_nodes(node):
    """The nodes below node outside function bodies; a class body runs at import."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_benchmark_traced_names_resolve_in_the_package():
    # the span recorder wraps each (module, function) of its TRACED tuple by
    # getattr, so a renamed or removed function breaks a traced benchmark run
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    traced = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "TRACED" for t in node.targets)]
    assert len(traced) == 1 and traced[0]
    for module, name, kind in traced[0]:
        fn = getattr(importlib.import_module("adideals." + module), name, None)
        assert callable(fn), "adideals.%s has no function %s" % (module, name)
        assert kind in ("call", "gen")


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"adideals"}
    for path in _package_files():
        for name in _imported_modules(ast.walk(ast.parse(path.read_text(), str(path)))):
            assert name.split(".")[0] in allowed, "%s imports %s" % (path.name, name)


def test_no_module_imports_fractions_at_import_time():
    # the functions that need it import it when called, so that no record loads it
    for path in _package_files():
        tree = ast.parse(path.read_text(), str(path))
        for name in _imported_modules(_import_time_nodes(tree)):
            assert name.split(".")[0] != "fractions", path.name


def _loads_by_scope(node, attr, scope=()):
    """The dotted class and function names around each load of `.attr`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        elif (isinstance(child, ast.Attribute) and child.attr == attr
              and isinstance(child.ctx, ast.Load)):
            yield ".".join(scope)
        yield from _loads_by_scope(child, attr, inner)


def test_only_the_scaled_pairings_read_the_gram_matrix_after_construction():
    # every inner product and pairing goes through the one checked product;
    # the constructor only stores the matrix
    loads = {(path.name, name) for path in _package_files()
             for name in _loads_by_scope(ast.parse(path.read_text(), str(path)), "_gram_num")}
    assert loads == {("rootsys.py", "RootSystem._scaled_pairings")}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a cold, isolated interpreter: both modules cost milliseconds to import
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import adideals.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(adideals.__file__)))
    proc = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# modules that a well-formed count and the counting and enumeration paths never
# use, imported by the functions that need them
DEFERRED = ("argparse", "gettext", "csv", "tempfile", "fractions", "decimal", "numbers",
            "json", "adideals.classical_types")

_COLD_CALLS = """
import io, sys
sys.path.insert(0, sys.argv[1])
deferred = set(sys.argv[2:])
before = set(sys.modules)
import adideals.cli
print(sorted(deferred & set(sys.modules) - before))
from adideals import cli, enumerate_ideals, build
sys.stdout, out = io.StringIO(), sys.stdout
code = cli.main(["count", "--type", "E8", "--rank", "8", "--quantity", "minimax"])
text, sys.stdout = sys.stdout.getvalue(), out
print(code, text.split()[3], len(list(enumerate_ideals(build("E8", 8), "minimax"))))
print(sorted(deferred & set(sys.modules) - before))
"""


def test_cli_import_and_counting_load_no_deferred_module():
    # a cold, isolated interpreter; a module its start-up already loaded
    # is not counted against the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(adideals.__file__)))
    proc = subprocess.run([sys.executable, "-I", "-c", _COLD_CALLS, src, *DEFERRED],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # E8 has 834 minimax ideals, counted and enumerated
    assert proc.stdout.splitlines() == ["[]", "0 value=834 834", "[]"]


def test_value_classes_are_immutable_tuples_with_field_reprs():
    rs = build("A", 2)
    report = L.count_AD(rs)
    values = [rs.theta, AffineRoot(1, (0, 1)), report,
              V.CheckResult("s", "n", 1, 1), H.HeisenbergElementDescriptor(rs.theta, 1)]
    for value in values:
        assert isinstance(value, tuple) and not hasattr(value, "__dict__")
        assert hash(value) == hash(tuple(value))
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
    assert repr(rs.theta) == "Root[1,1]"
    assert repr(values[1]) == "AffineRoot(1,[0,1])"
    assert repr(report) == ("CountReport(type_label='A', rank=2, quantity='AD', value=5, "
                            "method='closed_form', congruence_applied=False)")
    assert repr(values[4]) == "HeisenbergElementDescriptor(nu=Root[1,1], sign=1)"


# a classify call and the two enumerate routes: B5 reads every record off the
# points of D_min, the minimax, non-abelian class of C5 grows the images of w_min
_RECORD_CALLS = """
import io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from adideals import cli
for argv in (["classify", "--type", "E7", "--rank", "7", "--generators",
              "[[1,2,3,4,3,2,2]]", "--format", "json"],
             ["enumerate", "--type", "B", "--rank", "5", "--format", "json"],
             ["enumerate", "--type", "C", "--rank", "5", "--class", "minimax,non-abelian"]):
    sys.stdout, out = io.StringIO(), sys.stdout
    code = cli.main(argv)
    text, sys.stdout = sys.stdout.getvalue(), out
    print(code, len(text.splitlines()))
print(sorted({"fractions", "decimal", "numbers"} & set(sys.modules) - before))
"""


def test_records_load_no_fractions():
    # a cold, isolated interpreter: both record routes are integer-only
    src = os.path.dirname(os.path.dirname(os.path.abspath(adideals.__file__)))
    proc = subprocess.run([sys.executable, "-I", "-c", _RECORD_CALLS, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # exit code and output lines per call: C5 has 20 minimax, non-abelian ideals
    assert proc.stdout.splitlines() == ["0 52", "0 12986", "0 20", "[]"]
