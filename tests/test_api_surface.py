"""Every public API in src/nftgraph is used there or named by the
acceptance gate.

A top-level function or class, or a method of a top-level class, whose
name does not start with an underscore counts as public.  Uses are found
by name only: a `Name` or `Attribute` anywhere in src/ (an import alone is
no use), and in tests/test_acceptance.py, the ground-truth gate, also an
imported name or a string constant.  Other tests do not count: a public
definition that only they call is library surface nothing needs, and
should be deleted or moved into the tests (tests/oracles.py for a
reference implementation).

A public exception class (one derived, through classes under src/ or
directly, from a built-in exception) is used only where an `except`
clause under src/ names it, or where the gate names it: raising a type
that nothing catches tells no caller apart, so it should be its base
class.
"""

import ast
import builtins
from pathlib import Path

import nftgraph
from nftgraph import output

SRC = Path(output.__file__).parent
GATE = Path(__file__).parent / "test_acceptance.py"


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


def _exception_classes(trees) -> set[str]:
    """Names of the top-level classes in `trees` that derive from a
    built-in exception, directly or through one another."""
    bases = {node.name: _names(ast.Tuple(elts=node.bases),
                               imports_and_strings=False)
             for tree in trees for node in tree.body
             if isinstance(node, ast.ClassDef)}
    found = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    while grown := {c for c, b in bases.items() if b & found} - found:
        found |= grown
    return found & bases.keys()


def _caught(tree: ast.Module) -> set[str]:
    """The names in the types of the module's `except` clauses."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names |= _names(node.type, imports_and_strings=False)
    return names


def unused_api(src: Path, gate: Path) -> list[str]:
    """`file:line name` of each public definition under `src` that no
    module under `src` uses and the `gate` module does not name, and of
    each public exception class that no `except` clause under `src`
    names and the `gate` does not name."""
    modules = {p: ast.parse(p.read_text(), str(p))
               for p in sorted(src.glob("*.py"))}
    gated = _names(ast.parse(gate.read_text(), str(gate)),
                   imports_and_strings=True)
    used, caught = set(gated), set(gated)
    for tree in modules.values():
        used |= _names(tree, imports_and_strings=False)
        caught |= _caught(tree)
    errors = _exception_classes(modules.values())
    return [f"{p.name}:{line} {name}" for p, tree in modules.items()
            for name, line in _public_defs(tree)
            if name.rpartition(".")[2]
            not in (caught if name in errors else used)]


def test_every_public_api_is_used_or_tested():
    assert unused_api(SRC, GATE) == []


def test_every_exported_name_resolves():
    assert [name for name in nftgraph.__all__
            if not hasattr(nftgraph, name)] == []


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
        "def gated(): pass\n"
        "x = Kept().live() + used()\n"
        "class ModError(ValueError):\n"
        "    pass\n"
        "class Caught(ModError):\n"
        "    pass\n"
        "class Raised(ModError):\n"
        "    pass\n"
        "class GatedError(Caught):\n"
        "    pass\n"
        "try:\n"
        "    raise Raised(used())\n"
        "except (Caught, errors.ModError):\n"
        "    pass\n")
    (tests / "test_mod.py").write_text(
        "from mod import tested\n"
        "def test_it():\n"
        "    tested()\n")
    gate = tests / "test_acceptance.py"
    gate.write_text(
        "from mod import gated, GatedError\n"
        "def test_gate():\n"
        "    getattr(object(), 'looked_up')\n")
    assert unused_api(src, gate) == [
        "mod.py:4 tested", "mod.py:5 dead", "mod.py:6 imported_only",
        "mod.py:11 Kept.dead_method", "mod.py:13 Gone", "mod.py:21 Raised"]
