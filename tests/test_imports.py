"""Every name a library module imports is used in that module, every
public function and method has a caller, no module touches floating
point or holds an assert statement, the engines never call a checked
partition entry point, no module but characters reads its masks, rows or
column memo, global_classes reads nothing from perms but cycles, and
importing the CLI loads no decimal arithmetic.

The package's __init__ imports names to re-export them and is left out of
the unused-import scan.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altchar

PACKAGE = Path(altchar.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


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


def _float_uses(source: str) -> list[str]:
    """Each cmath import, call of complex and float or imaginary literal in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name == "cmath" for alias in node.names):
                found.append((node.lineno, "cmath import"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "cmath":
                found.append((node.lineno, "cmath import"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "complex":
            found.append((node.lineno, "complex call"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"literal {node.value!r}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_floats_in_the_package(path):
    """The engines and the acceptance checklist's oracles are all exact."""
    assert _float_uses(path.read_text()) == []


def test_the_scan_flags_a_float():
    source = "import cmath\nfrom cmath import exp\nx = complex(1, 2)\ny = 0.5 + 2j\nz = exp(1)\n"
    assert _float_uses(source) == [
        "cmath import (line 1)",
        "cmath import (line 2)",
        "complex call (line 3)",
        "literal 0.5 (line 4)",
        "literal 2j (line 4)",
    ]


def _asserts(source: str) -> list[str]:
    """Each assert statement in source."""
    lines = sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))
    return [f"assert (line {line})" for line in lines]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_asserts_in_the_package(path):
    """python -O strips asserts: a check that guards exactness raises a named error instead."""
    assert _asserts(path.read_text()) == []


def test_the_scan_flags_an_assert():
    source = "def f(x):\n    assert x > 0, 'positive'\n    if x:\n        assert x\n    return x\n"
    assert _asserts(source) == ["assert (line 2)", "assert (line 4)"]


CHECKED = {"conjugate", "dimension", "phi", "has_distinct_odd_parts", "cycle_type_data"}
ENGINES = ["characters", "multiplicity", "global_classes", "classify"]


def _reads(source: str, names: set[str]) -> list[str]:
    """Each import or read, bare or as an attribute, of one of names in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in names]
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("module", ENGINES)
def test_engines_call_the_trusted_kernels(module):
    """Below the boundary a partition is trusted: the engines call _conjugate,
    _dimension, _phi and _distinct_odd, never the entry points that check again."""
    assert _reads((PACKAGE / f"{module}.py").read_text(), CHECKED) == []


def test_the_scan_flags_a_checked_read():
    source = (
        "from .partitions import _conjugate, conjugate\n"
        "x = conjugate((2,))\ny = P.dimension(x)\nz = _conjugate(x) + _phi(x)\nw = phi\n"
    )
    assert _reads(source, CHECKED) == [
        "conjugate (line 1)",
        "conjugate (line 2)",
        "dimension (line 3)",
        "phi (line 5)",
    ]


COLUMN_INTERNALS = {
    "_COLUMNS", "_fill_columns", "_irrep_index", "_row_index", "_rim_table", "_rim_hooks",
    "_beta_mask", "_transpose_mask", "_mask_degree", "_mn",
}


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "characters"], ids=lambda p: p.stem
)
def test_only_characters_reads_masks_rows_and_columns(path):
    """Beta-set masks, shape rows and the column memo stay inside characters:
    other modules hand over shapes and class tallies, and read values back."""
    assert _reads(path.read_text(), COLUMN_INTERNALS) == []


def test_the_scan_flags_a_column_internal():
    source = (
        "from .characters import _sn_values, _mn\n"
        "from . import characters\n"
        "x = characters._COLUMNS[(2,)]\ny = _mn(6, (2,)) + _sn_values((2,), [(2,)])[0]\n"
    )
    assert _reads(source, COLUMN_INTERNALS) == ["_mn (line 1)", "_COLUMNS (line 3)", "_mn (line 4)"]


def _perms_reads(source: str) -> list[str]:
    """Each name that source reads from perms, as perms.name or by a from-import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "perms":
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "perms":
            found.add(node.attr)
    return sorted(found)


def test_global_classes_reads_only_cycles_from_perms():
    """The explicit route walks each factor for its elements' cycles; _tally's
    rule tags split elements, so no sign or conjugator is taken."""
    assert _perms_reads((PACKAGE / "global_classes.py").read_text()) == ["cycles"]


def test_the_scan_flags_a_perms_read():
    source = "from . import perms\nfrom .perms import sign\nx = perms.cycles(w)\ny = perms.conjugator(w, x)\n"
    assert _perms_reads(source) == ["conjugator", "cycles", "sign"]


def _public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public top-level function and public method."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((f"{node.name}.{item.name}", item.name))
    return out


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names that the module's code reads."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def _uncalled(modules: dict[str, str], init_source: str, scripts: list[str]) -> list[str]:
    exported = set(_imported_names(ast.parse(init_source)))
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = [_references(t) for t in [*trees.values(), *map(ast.parse, scripts)]]
    names = set().union(*(n for n, _ in refs))
    attrs = set().union(*(a for _, a in refs))

    def read(qualified: str, name: str) -> bool:
        is_method = "." in qualified
        return name in exported or name in attrs or (not is_method and name in names)

    return [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _public_definitions(tree)
        if not read(qualified, name)
    ]


def test_public_api_has_a_caller():
    """A public function or method that altchar does not export is read somewhere
    in src/altchar or scripts/, or it goes.

    A function counts as called when its name is read, bare or as an
    attribute; a method only when it is read as an attribute, so a local
    variable of the same name does not hide it.  The scan does not know
    which class an attribute belongs to: CharacterTable.value, say, would
    count as used because bias entries have a .value field.  A call inside
    the defining module counts, as for a helper that only its own module's
    engine calls.
    """
    modules = {p.stem: p.read_text() for p in MODULES}
    scripts = [p.read_text() for p in SCRIPTS]
    assert SCRIPTS
    assert _uncalled(modules, (PACKAGE / "__init__.py").read_text(), scripts) == []


def test_the_scan_flags_an_uncalled_method_and_function():
    modules = {
        "shapes": "class Box:\n    def area(self):\n        return 1\n\n    def spare(self):\n        pass\n\n"
        "def helper():\n    return Box().area()\n\ndef orphan():\n    pass\n",
        "engine": "from .shapes import helper\n\ndef run():\n    spare = helper()\n    return spare\n",
    }
    assert _uncalled(modules, "from .engine import run\n", []) == ["shapes.Box.spare", "shapes.orphan"]


def test_the_cli_imports_no_decimal_arithmetic():
    """fractions pulls in decimal and numbers; the exact core needs neither."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, altchar.cli; print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
