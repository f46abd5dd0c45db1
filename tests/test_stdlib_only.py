"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

import rustport

PACKAGE = Path(rustport.__file__).parent


def test_package_imports_only_stdlib_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "rustport" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert foreign == []
