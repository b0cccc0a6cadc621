"""Every module of the package, demo and test file uses each name it imports.

A stdlib ``ast`` scan: a name bound by ``import`` or ``from ... import`` in
a module of ``src/voazhu`` (other than ``__init__.py``, which re-exports),
a demo or a test file must appear as a name somewhere in that file.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "voazhu"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tests/*.py")))


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom math import factorial, gcd\n\nprint(gcd(4, 6))\n")
    assert unused_imports(probe) == ["factorial (line 2)", "os (line 1)"]
