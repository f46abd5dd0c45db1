"""Every process the package starts is started in one of three modules:
``cargo`` (rustc, rustup, the test command), ``buildctx`` (the preprocessor)
and ``knowledge.mining`` (git). Only they import ``subprocess``; no module
starts a process through ``os``, ``multiprocessing`` or ``asyncio``."""

import ast
from pathlib import Path

import rustport

PACKAGE = Path(rustport.__file__).parent
PROCESS_OWNERS = {"cargo.py", "buildctx.py", "knowledge/mining.py"}
PROCESS_MODULES = {"subprocess", "multiprocessing", "asyncio"}
OS_STARTERS = ("system", "popen", "spawn", "exec", "fork", "posix_spawn")


def process_starts(tree: ast.AST) -> list[tuple[str, int]]:
    """(what, line) for each import of a process module and each ``os``
    function that starts a process."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr.startswith(OS_STARTERS)
        ):
            found.append((f"os.{node.attr}", node.lineno))
            continue
        else:
            continue
        for name in names:
            if name.split(".")[0] in PROCESS_MODULES or name.startswith(
                tuple(f"os.{s}" for s in OS_STARTERS)
            ):
                found.append((name, node.lineno))
    return sorted(found, key=lambda start: start[1])


def test_process_starts_finds_imports_and_os_calls():
    source = (
        "import os, json\n"
        "import subprocess as sp\n"
        "from multiprocessing import Pool\n"
        "from os import system\n"
        "os.execvp('x', ['x'])\n"
        "os.environ.get('PATH')\n"
    )
    assert process_starts(ast.parse(source)) == [
        ("subprocess", 2),
        ("multiprocessing", 3),
        ("multiprocessing.Pool", 3),
        ("os.system", 4),
        ("os.execvp", 5),
    ]


def test_only_three_modules_start_processes():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    owners, strays = set(), []
    for path in modules:
        rel = path.relative_to(PACKAGE).as_posix()
        starts = process_starts(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if rel in PROCESS_OWNERS:
            owners.update(rel for what, _ in starts if what == "subprocess")
        else:
            strays += [f"{rel}:{line}: {what}" for what, line in starts]
    assert strays == []
    assert owners == PROCESS_OWNERS
