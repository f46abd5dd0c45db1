"""No module reaches into another: a name with a leading underscore is private
to the package module that defines it. Importing such a name from a sibling
module (``from .csyms import _X``) or reading it off an imported module
(``clayout._x``) couples the two through an internal; the name is made public
instead. Dunder names are exempt."""

import ast
from pathlib import Path

import rustport

PACKAGE = Path(rustport.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_module(package_dir: Path, name: str) -> bool:
    return (package_dir / f"{name}.py").is_file() or (package_dir / name / "__init__.py").is_file()


def private_uses(tree: ast.AST, module_path: Path) -> list[tuple[str, int]]:
    """(dotted use, line) for each private name of another package module that
    the module at ``module_path`` imports or reads."""
    found = []
    module_names: set[str] = set()  # local names bound to package modules
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        base = module_path.parent
        for _ in range(node.level - 1):
            base = base.parent
        if node.module:
            base = base.joinpath(*node.module.split("."))
        for alias in node.names:
            if _private(alias.name):
                found.append((f"{node.module or '.'}.{alias.name}", node.lineno))
            elif _is_module(base, alias.name):
                module_names.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and _private(node.attr)
        ):
            found.append((f"{node.value.id}.{node.attr}", node.lineno))
    return sorted(found, key=lambda use: use[1])


def test_private_uses_finds_imports_and_attribute_reads(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    for rel in ("__init__.py", "a.py", "b.py", "sub/__init__.py", "sub/c.py"):
        (pkg / rel).write_text("")
    source = (
        "from . import a\n"
        "from .b import _HIDDEN, public, __version__\n"
        "from .sub import c as cee\n"
        "x = a._helper(a.visible)\n"
        "y = cee._table\n"
        "z = public._attr\n"
        "w = a.__doc__\n"
    )
    uses = private_uses(ast.parse(source), pkg / "d.py")
    assert uses == [("b._HIDDEN", 2), ("a._helper", 4), ("cee._table", 5)]


def test_no_module_uses_another_modules_private_names():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    uses = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for use, line in private_uses(tree, path):
            uses.append(f"{path.relative_to(PACKAGE)}:{line}: {use}")
    assert uses == []
