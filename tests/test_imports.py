"""Every name a library module imports is used in that module.

The package's __init__ imports names to re-export them and is left out.
"""

import ast
from pathlib import Path

import pytest

import altchar

MODULES = sorted(p for p in Path(altchar.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of its import, for every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in used]


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"numtheory", "multiplicity", "characters", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_flags_a_stale_import():
    source = "import cmath\nfrom fractions import Fraction\nfrom . import perms\n\nx = perms.sign\n"
    assert _unused_imports(source) == ["cmath (line 1)", "Fraction (line 2)"]
