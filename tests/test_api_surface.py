"""Every public API in src/nftgraph is used there or named by a test.

A top-level function or class, or a method of a top-level class, whose
name does not start with an underscore counts as public.  Uses are found
by name only: a `Name` or `Attribute` anywhere in src/ (an import alone is
no use), and in tests/ also an imported name or a string constant (for
`getattr` and `monkeypatch`).  A public definition that nothing calls or
tests should be deleted.
"""

import ast
from pathlib import Path

from nftgraph import output

SRC = Path(output.__file__).parent
TESTS = Path(__file__).parent


def _public_defs(tree: ast.Module):
    """(qualified name, line) of each public definition in a module."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, defs[:2])
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.lineno


def _names(tree: ast.Module, *, imports_and_strings: bool) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports_and_strings and isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (imports_and_strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
    return names


def unused_api(src: Path, tests: Path) -> list[str]:
    """`file:line name` of each public definition under `src` that no
    module under `src` uses and no module under `tests` names."""
    modules = {p: ast.parse(p.read_text(), str(p))
               for p in sorted(src.glob("*.py"))}
    used = set().union(*(_names(t, imports_and_strings=False)
                         for t in modules.values()))
    for p in sorted(tests.glob("*.py")):
        used |= _names(ast.parse(p.read_text(), str(p)),
                       imports_and_strings=True)
    return [f"{p.name}:{line} {name}" for p, tree in modules.items()
            for name, line in _public_defs(tree)
            if name.rpartition(".")[2] not in used]


def test_every_public_api_is_used_or_tested():
    assert unused_api(SRC, TESTS) == []


def test_unused_api_guard_sees_dead_definitions(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "mod.py").write_text(
        "from .other import imported_only\n"
        "def used(): return helper()\n"
        "def helper(): pass\n"
        "def tested(): pass\n"
        "def dead(): pass\n"
        "def imported_only(): pass\n"
        "def _private(): pass\n"
        "class Kept:\n"
        "    def live(self): pass\n"
        "    def looked_up(self): pass\n"
        "    def dead_method(self): pass\n"
        "    def __len__(self): return 0\n"
        "class Gone:\n"
        "    pass\n"
        "x = Kept().live() + used()\n")
    (tests / "test_mod.py").write_text(
        "from mod import tested\n"
        "def test_it():\n"
        "    getattr(tested, 'looked_up')\n")
    assert unused_api(src, tests) == [
        "mod.py:5 dead", "mod.py:6 imported_only",
        "mod.py:11 Kept.dead_method", "mod.py:13 Gone"]
