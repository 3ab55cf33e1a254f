"""Every module of the package uses each name it imports and imports
nothing but the standard library and itself; so do the tests' oracles,
which may also import pytest."""

import ast
import sys
from pathlib import Path

import pytest

import kellerpack

FILES = sorted(Path(kellerpack.__file__).parent.glob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]
ORACLES = Path(__file__).with_name("oracles.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_unused_imports():
    source = "import os, sys\nfrom a.b import c, d as e\nsys.exit(e)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES + [ORACLES], ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def absolute_imports(source: str) -> list[str]:
    """Top-level module names of the absolute imports of `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names)


def test_finds_absolute_imports():
    source = "import os.path, sys\nfrom a.b import c\nfrom . import d\nfrom .e import f\n"
    assert absolute_imports(source) == ["a", "os", "sys"]


# the package has no runtime dependencies: every absolute import of every
# module, __init__ included, is of the standard library
@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    imports = absolute_imports(path.read_text())
    assert [name for name in imports if name not in sys.stdlib_module_names] == []


# the oracles import the package they check and pytest, its one test
# dependency (pyproject.toml), for the fixtures they share
def test_oracles_import_only_the_standard_library_the_package_and_pytest():
    imports = absolute_imports(ORACLES.read_text())
    extra = [name for name in imports if name not in sys.stdlib_module_names]
    assert extra == ["kellerpack", "pytest"]
