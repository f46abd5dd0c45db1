"""Every parameter is read: a function the package defines never takes a value
its body (nested functions and lambdas included) does not use. ``self``,
``cls`` and ``_``-prefixed names are exempt, and so are lambdas, whose
signatures are set by the callers they are passed to."""

import ast
from pathlib import Path

import rustport

PACKAGE = Path(rustport.__file__).parent


def unused_params(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(function, parameter, line) for each parameter its function never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for param in params:
            if param.arg in ("self", "cls") or param.arg.startswith("_"):
                continue
            if param.arg not in read:
                found.append((node.name, param.arg, param.lineno))
    return found


def test_unused_params_finds_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, _c, *rest):\n"
        "    def g():\n"
        "        return a\n"
        "    return g() + len(rest)\n"
        "h = lambda x, y: x\n"
    )
    assert [(fn, p) for fn, p, _ in unused_params(tree)] == [("f", "b")]


def test_package_has_no_unused_parameters():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn, param, line in unused_params(tree):
            unused.append(f"{path.relative_to(PACKAGE)}:{line}: {fn}({param})")
    assert unused == []
