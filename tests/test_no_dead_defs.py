"""No dead definitions in ``src/repro`` — nothing is kept without a caller.

A top-level function or class, or a method, whose name is referenced
nowhere in ``src/``, ``tests/``, ``examples/``, ``benchmarks/`` or
``tools/`` fails.  A reference is a ``Name``, an attribute access, or a
string constant spelling the name (``getattr(backend, "nb_writev",
None)``); the definition itself, an ``import`` that does not rename,
``__all__`` entries and docstrings are not references.  Matching is by
bare name, so a method is alive if *any* same-named attribute is used:
the rule only finds what nothing at all mentions.  Dunder methods are
called by the interpreter and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINED_IN = "src/repro"
REFERENCED_FROM = ("src", "tests", "examples", "benchmarks", "tools")

#: Genuine entry points nothing in the repo calls by name; one line each,
#: with the reason.
ALLOWED: dict[str, str] = {}


def _docstrings_and_exports(tree: ast.Module) -> set[int]:
    """``id()`` of every Constant node that is a docstring or an
    ``__all__`` entry — strings that name things without using them."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                skipped.update(id(c) for c in ast.walk(node.value))
    return skipped


def references(source: str) -> set[str]:
    tree = ast.parse(source)
    skipped = _docstrings_and_exports(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            # ``import x as y`` hides later uses of ``x`` behind ``y``.
            found.update(alias.name for alias in node.names if alias.asname)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skipped):
            found.add(node.value)
    return found


def definitions(source: str) -> list[tuple[int, str]]:
    """``(lineno, name)`` of top-level functions and classes and of
    methods (functions directly in a class body, at any depth)."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [(node.lineno, node.name) for node in tree.body
             if isinstance(node, (*functions, ast.ClassDef))]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            found.extend((node.lineno, node.name) for node in cls.body
                         if isinstance(node, functions))
    return sorted(
        (lineno, name) for lineno, name in set(found)
        if not (name.startswith("__") and name.endswith("__")))


def dead_defs(defined: dict[str, str], referencing: dict[str, str]):
    """``defined``/``referencing`` map path -> source: the definitions
    in ``defined`` that no file in ``referencing`` refers to."""
    used: set[str] = set()
    for source in referencing.values():
        used |= references(source)
    return [(path, lineno, name)
            for path, source in sorted(defined.items())
            for lineno, name in definitions(source)
            if name not in used and name not in ALLOWED]


def test_the_checker_sees_what_it_should():
    module = (
        '"""Mentions dead_function and DeadClass in a docstring."""\n'
        "from .other import imported_only, renamed as _renamed\n"
        "__all__ = ['dead_function', 'exported_and_used']\n"
        "def dead_function():\n"
        "    return 1\n"
        "def exported_and_used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 2\n"
        "class DeadClass:\n"
        "    def __repr__(self):\n"
        "        return 'x'\n"
        "class Live:\n"
        "    def used_method(self):\n"
        "        return getattr(self, 'by_string')()\n"
        "    def by_string(self):\n"
        "        return 3\n"
        "    def dead_method(self):\n"
        "        '''Says used_method, which does not save dead_method.'''\n"
        "    def imported_only(self):\n"
        "        return 4\n"
        "    def renamed(self):\n"
        "        return _renamed()\n"
    )
    caller = (
        "from mod import Live, exported_and_used\n"
        "exported_and_used()\n"
        "Live().used_method()\n"
    )
    assert dead_defs({"mod.py": module},
                     {"mod.py": module, "test_mod.py": caller}) == [
        ("mod.py", 4, "dead_function"),
        ("mod.py", 10, "DeadClass"),
        ("mod.py", 18, "dead_method"),
        ("mod.py", 20, "imported_only"),
    ]


def test_no_dead_defs_in_src():
    referencing = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in REFERENCED_FROM
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    defined = {path: source for path, source in referencing.items()
               if path.startswith(DEFINED_IN)}
    findings = [f"{path}:{lineno}: {name!r} is defined but nothing "
                f"references it"
                for path, lineno, name in dead_defs(defined, referencing)]
    assert not findings, "\n".join(findings)
