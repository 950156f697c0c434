"""Every top-level function and class in ``src/versebert`` is reached by the
program: a ``.py`` file under ``src/``, ``scripts/`` or ``perfbench/``, but not
under a ``tests/`` directory, refers to it outside its own definition.

A reference is a name, an attribute, or one part of a dotted string constant,
which is how perfbench's ``TARGETS`` names what it wraps. The check goes by
name alone, so a definition that shares its name with a method called anywhere
(``split``, ``encode``) passes. It is there to catch code that only tests call.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions kept although only tests reach them, each with its reason.
ALLOWED = {
    # the scalar sinusoidal formula, the reference that acceptance criterion 03
    # checks the vectorised table against
    "positional_encoding",
}


def _names(node) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and DOTTED.fullmatch(sub.value):
            found.update(sub.value.split("."))
    return found


def _references() -> dict:
    """(file, name of the top-level definition or None) -> the names referenced in it."""
    refs: dict = {}
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
                refs.setdefault((path, owner), set()).update(_names(stmt))
    return refs


def _definitions() -> list:
    return [(path, stmt.name) for path in sorted((ROOT / "src" / "versebert").glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body if isinstance(stmt, DEFINITIONS)]


def test_every_definition_in_src_is_reached_by_the_program():
    refs = _references()
    unreached = [f"{path.name}: {name}" for path, name in _definitions() if name not in ALLOWED
                 and not any(name in names for where, names in refs.items() if where != (path, name))]
    assert unreached == []


def test_the_allowlist_names_only_existing_definitions():
    assert ALLOWED <= {name for _, name in _definitions()}
