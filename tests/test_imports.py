"""The package imports only the standard library and itself."""

import ast
import pathlib
import sys

import adideals


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"adideals"}
    files = sorted(pathlib.Path(adideals.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, "%s imports %s" % (path.name, name)
