"""No module of the package imports a name it never uses, defines one nothing
calls, or gives a dataclass a field nothing reads.

Helpers that only tests need live in ``tests/``: a definition or a field
counts as used only when ``src/``, ``demos/`` or ``bench/`` refers to it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srcortex"
USERS = ("src", "demos", "bench")
# definitions a library calls by name, unseen here
CALLED_BY_LIBRARY = {"cli._Parser.error"}  # argparse, on a usage error


def _is_all(node) -> bool:
    """Whether ``node`` assigns a module's ``__all__``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ count as used
        if _is_all(node):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _definitions(path: Path) -> dict[str, str]:
    """``module.name`` of each top-level function and class, and of each
    method other than dunders, mapped to the name a use would spell."""
    defs = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[f"{path.stem}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    defs[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return defs


def _user_nodes():
    """Every node of every module in the users, ``__all__`` lists left out."""
    for folder in USERS:
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text())
            tree.body = [node for node in tree.body if not _is_all(node)]
            yield from ast.walk(tree)


def _references() -> set[str]:
    """Every name, attribute and string constant (getattr) in the users.

    The strings of an ``__all__`` list are not uses: exporting a name
    does not make anything call it.
    """
    names = set()
    for node in _user_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_definition_only_tests_use():
    referenced = _references()
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs.update(_definitions(path))
    unused = {qual for qual, name in defs.items() if name not in referenced}
    assert unused == CALLED_BY_LIBRARY


def test_package_exports_only_what_users_import():
    """Every name in the package's ``__all__`` is imported from ``srcortex``
    in ``src/``, ``demos/`` or ``bench/``; tests import the rest from
    their modules."""
    imported = {alias.name for node in _user_nodes()
                if isinstance(node, ast.ImportFrom) and node.module == "srcortex"
                and not node.level for alias in node.names}
    [exported] = [{elt.value for elt in node.value.elts}
                  for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                  if _is_all(node)]
    assert exported - imported == set()


def _dataclass_fields(path: Path) -> dict[str, str]:
    """``module.Class.field`` of each field of a ``@dataclass``, mapped to its name."""
    fields = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass" for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    fields[f"{path.stem}.{node.name}.{item.target.id}"] = item.target.id
    return fields


def test_no_dataclass_field_only_tests_read():
    """Every dataclass field is read as ``x.<field>`` in ``src/``, ``demos/`` or ``bench/``.

    The check goes by name, as ``test_no_definition_only_tests_use``
    does: a field passes when any attribute of that name is read, so a
    field that shares its name with a read attribute of another class
    passes too.
    """
    read = {node.attr for node in _user_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {}
    for path in sorted(PACKAGE.glob("*.py")):
        fields.update(_dataclass_fields(path))
    assert {qual for qual, name in fields.items() if name not in read} == set()
