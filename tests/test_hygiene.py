"""Source hygiene read with the standard library's ast: imports earn their keep."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phytolab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> list[str]:
    """Every name the module's import statements bind, __future__ aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in _imported(tree) if name not in used] == []


def test_package_exports_exactly_what_it_imports():
    tree = _tree(PACKAGE / "__init__.py")
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
    ]
    assert sorted(_imported(tree)) == sorted(exported)


@pytest.mark.parametrize(
    "path", [*MODULES, PACKAGE / "__init__.py"], ids=lambda p: p.stem
)
def test_module_reads_no_other_modules_private_names(path):
    """Neither `mod._x` on an imported package module nor `from .mod import _x`."""
    tree = _tree(path)
    modules, read = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import fra, streams
                modules |= {a.asname or a.name for a in node.names}
            else:  # from .fra import _x
                read += [f"{node.module}.{a.name}" for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                read.append(f"{node.value.id}.{node.attr}")
    assert [name for name in read if name.rsplit(".", 1)[1].startswith("_")] == []
