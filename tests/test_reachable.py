"""Every top-level function and class in ``src/versebert`` is reached by the
program: a ``.py`` file under ``src/``, ``scripts/`` or ``perfbench/``, but not
under a ``tests/`` directory, refers to it outside its own definition.

A reference to ``f`` defined in ``versebert/m.py`` is one of:

- ``x.f`` where ``x`` is bound to the module (``from versebert import m as x``,
  ``from . import m``);
- ``from .m import f`` or ``from versebert.m import f``;
- the bare name ``f`` inside ``m.py`` itself;
- ``sys.modules["versebert.m"].f``, or a tuple holding the constants
  ``"versebert.m"`` and ``"f"`` or ``"f.attr"``, which is how perfbench's
  ``TARGETS`` names what it wraps.

A method call such as ``data.decode(...)`` on an unrelated object is no
reference, so a name shared with a method does not pass by accident. The check
is there to catch code that only tests call.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "perfbench")
PACKAGE = "versebert"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions kept although only tests reach them, each with its reason.
ALLOWED = {
    # single-head attention on separate q, k and v with a 0/1 mask, which acceptance
    # criteria 02 and 04 check; the encoder calls ``ag.attention`` on its fused projection
    "scaled_dot_attention",
}


def _package_module(dotted) -> str | None:
    """``m`` for ``"versebert.m"``, else None."""
    head, _, rest = (dotted or "").partition(".")
    return rest if head == PACKAGE and rest and "." not in rest else None


def _imported_module(node: ast.ImportFrom, own: str | None) -> str | None:
    """The package module an ``import from`` reads: ``m`` for ``from .m`` inside
    the package or ``from versebert.m``, ``""`` for ``from .`` or ``from versebert``."""
    if node.level == 1 and own is not None:
        return node.module or ""
    if node.level == 0:
        return "" if node.module == PACKAGE else _package_module(node.module)
    return None


def _module_aliases(tree, own: str | None) -> dict[str, str]:
    """Local name -> package module, for every name the file binds to a package module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imported_module(node, own) == "":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            aliases.update({a.asname: _package_module(a.name) for a in node.names if a.asname and _package_module(a.name)})
    return aliases


def _module_expr(node, aliases: dict[str, str]) -> str | None:
    """The package module an expression stands for: an alias or ``sys.modules["versebert.m"]``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and ast.unparse(node.value) == "sys.modules"):
        return _package_module(node.slice.value)
    return None


def _refs(node, own: str | None, aliases: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) pairs that ``node`` refers to, by the rules of the module docstring."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and own is not None:
            found.add((own, sub.id))
        elif isinstance(sub, ast.Attribute) and (module := _module_expr(sub.value, aliases)):
            found.add((module, sub.attr))
        elif isinstance(sub, ast.ImportFrom) and (module := _imported_module(sub, own)):
            found.update((module, a.name) for a in sub.names)
        elif isinstance(sub, ast.Tuple):
            consts = [e.value for e in sub.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            for module in filter(None, map(_package_module, consts)):
                found.update((module, c.split(".")[0]) for c in consts if DOTTED.fullmatch(c))
    return found


def _references(sources: dict) -> dict:
    """(file, name of the top-level definition or None) -> the (module, name) pairs
    referenced in it, for ``sources``: file -> (its package module or None, source text)."""
    refs: dict = {}
    for path, (own, text) in sources.items():
        tree = ast.parse(text)
        aliases = _module_aliases(tree, own)
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            refs.setdefault((path, owner), set()).update(_refs(stmt, own, aliases))
    return refs


def _unreached(sources: dict, definitions: list) -> list:
    """The (file, module, name) definitions that no other part of ``sources`` refers to."""
    refs = _references(sources)
    return [f"{path}: {name}" for path, module, name in definitions
            if not any((module, name) in names for where, names in refs.items() if where != (path, name))]


def _program_sources() -> dict:
    sources = {}
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            own = path.stem if path.parent == ROOT / "src" / PACKAGE else None
            sources[str(path.relative_to(ROOT))] = (own, path.read_text(encoding="utf-8"))
    return sources


def _definitions(sources: dict) -> list:
    return [(path, own, stmt.name) for path, (own, text) in sources.items() if own is not None
            for stmt in ast.parse(text).body if isinstance(stmt, DEFINITIONS)]


def test_every_definition_in_src_is_reached_by_the_program():
    sources = _program_sources()
    definitions = [d for d in _definitions(sources) if d[2] not in ALLOWED]
    assert _unreached(sources, definitions) == []


def test_the_allowlist_names_only_existing_definitions():
    assert ALLOWED <= {name for _, _, name in _definitions(_program_sources())}


TOKENIZER = "def decode(ids):\n    return ids\n\n\ndef encode(line):\n    return [line]\n"


def test_a_method_of_the_same_name_is_no_reference():
    sources = {
        "tokenizer.py": ("tokenizer", TOKENIZER),
        "scripts/load.py": (None, "def load(raw):\n    return raw.decode('utf-8'), raw.encode\n"),
    }
    assert _unreached(sources, _definitions(sources)) == ["tokenizer.py: decode", "tokenizer.py: encode"]


def test_each_reference_form_reaches_its_definition():
    forms = [
        "from . import tokenizer as tk\ntk.decode",
        "from .tokenizer import decode",
        "from versebert.tokenizer import decode",
        "from versebert import tokenizer\ntokenizer.decode",
        "import versebert.tokenizer as tk\ntk.decode",
        "import sys\nsys.modules['versebert.tokenizer'].decode",
        "TARGETS = (('tokenizer.decode', 'versebert.tokenizer', 'decode'),)",
    ]
    for form in forms:
        sources = {"tokenizer.py": ("tokenizer", TOKENIZER), "user.py": ("user", form)}
        assert _unreached(sources, _definitions(sources)) == ["tokenizer.py: encode"], form
    own = {"tokenizer.py": ("tokenizer", TOKENIZER + "\n\ndef main():\n    return decode, encode\n")}
    assert _unreached(own, _definitions(own)) == ["tokenizer.py: main"]
