"""No dead imports in ``src/`` and ``tools/`` — CI's ``F401``, offline.

``ruff`` is not installed on the build box, so a deletion that strands an
import would only fail after the push.  This is the same rule with the
stdlib ``ast``: a name bound by ``import``/``from ... import`` must be
referenced somewhere in its module or be listed in ``__all__``.
``__init__.py`` files import to re-export and are skipped, as in
``ruff.toml``.  (A name used only inside a quoted annotation would read
as dead here and not to ruff; none exists today.)
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tools")


def _exported(tree: ast.Module) -> set[str]:
    return {
        constant.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets)
        for constant in ast.walk(node.value)
        if isinstance(constant, ast.Constant)
    }


def dead_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)} | _exported(tree)
    dead = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    dead.append((node.lineno, bound))
    return dead


def test_the_checker_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import heapq\n"
        "import os.path\n"
        "from typing import Any, Callable as Fn\n"
        "from .wheel import TimerWheel, TimerHandle\n"
        "from .extra import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: TimerWheel) -> Any:\n"
        "    return os.path.join(x)\n"
    )
    assert dead_imports(source) == [
        (2, "heapq"), (4, "Fn"), (5, "TimerHandle")]


def test_no_dead_imports_in_src_and_tools():
    findings = []
    for top in CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for lineno, name in dead_imports(path.read_text()):
                findings.append(
                    f"{path.relative_to(ROOT)}:{lineno}: {name!r} imported "
                    f"but unused")
    assert not findings, "\n".join(findings)
