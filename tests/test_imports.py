"""symns runs in one process: no module of the package imports a way to
start processes or threads.  Parallelism, if it is ever wanted, has to
change this test."""

import ast
import glob
import os

import pytest

import symns

BANNED = ("concurrent.futures", "multiprocessing", "threading")

MODULES = sorted(glob.glob(os.path.join(os.path.dirname(symns.__file__),
                                        "*.py")))


def _imported(path):
    """Absolute names a module imports, `from a import b` read as a and a.b."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_modules_found():
    assert os.path.basename(MODULES[0]) == "__init__.py"
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_imports_nothing_parallel(path):
    bad = sorted({name for name in _imported(path) for b in BANNED
                  if name == b or name.startswith(b + ".")})
    assert not bad, f"{os.path.basename(path)} imports {', '.join(bad)}"
