"""Source hygiene: no module of the package or its tests imports a name it
never uses, no private module-level name of the package is left without
a use, every public one is used or exported, and every cache of the
package is bounded.  Standard library only: the checks walk each file's
syntax tree."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "iterint").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside a quoted annotation such as ``-> "FormBasis"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never references; a name listed in
    ``__all__`` counts as used, since importing it is how it is exported."""
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                used |= _annotation_names(annotation)
    return sorted(imported - used - _exported([source]))


def _defined_names(stmt: ast.stmt) -> set[str]:
    """Names a module-level function, class or assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _exported(sources: list[str]) -> set[str]:
    """The names listed in any module-level ``__all__`` of the sources."""
    out: set[str] = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.Assign) and "__all__" in _defined_names(stmt):
                out.update(ast.literal_eval(stmt.value))
    return out


def _referenced_names(stmt: ast.stmt) -> set[str]:
    """Names a statement reads: plain names, attributes and quoted annotations."""
    out: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                out |= _annotation_names(annotation)
    return out


def _unread(sources: list[str], kind) -> set[str]:
    """Module-level names for which ``kind(name)`` holds that no other
    statement of any of the ``sources`` reads; a use inside its own
    definition does not count."""
    defined: set[str] = set()
    used: set[str] = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            names = {n for n in _defined_names(stmt) if kind(n)}
            defined |= names
            used |= _referenced_names(stmt) - names
    return defined - used


def unreferenced_private(sources: list[str]) -> list[str]:
    """Module-level functions, classes and constants named with a leading
    underscore (dunders aside) that no other statement of any of the
    ``sources`` reads."""
    return sorted(_unread(sources, lambda n: n[:1] == "_" and n[:2] != "__"))


def unexported_public(sources: list[str]) -> list[str]:
    """Module-level functions, classes and constants without a leading
    underscore that no other statement of any of the ``sources`` reads and
    that no ``__all__`` of theirs exports: public names nobody can reach
    but by importing the module that defines them."""
    return sorted(_unread(sources, lambda n: n[:1] != "_") - _exported(sources))


def test_checker_finds_unused_names():
    source = (
        "import os\nimport os.path as osp\nfrom a import b, c\n"
        "__all__ = ['c']\ndef f(x: 'Path') -> None:\n    return b\n"
    )
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_unreferenced_private_names():
    sources = [
        "_A = 1\n_B = 2\n__all__ = []\ndef _f(n):\n    return _f(n - 1)\nclass _C:\n    pass\n",
        "def g(x: '_C'):\n    return m._B\n",
    ]
    assert unreferenced_private(sources) == ["_A", "_f"]


def test_private_names_are_referenced():
    assert unreferenced_private([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def test_checker_finds_unexported_public_names():
    sources = [
        "A = 1\nB = 2\n__all__ = ['C']\ndef f(n):\n    return f(n - 1)\n"
        "class C:\n    pass\ndef _g():\n    return B\n",
        "def h(x: 'D'):\n    return m.A\nclass D:\n    pass\n",
    ]
    assert unexported_public(sources) == ["f", "h"]


def test_public_names_are_read_or_exported():
    assert unexported_public([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def _int_constants(sources: list[str]) -> dict[str, int]:
    """Module-level names bound to an integer literal, across the sources."""
    out: dict[str, int] = {}
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
                if type(stmt.value.value) is int:
                    out.update((t.id, stmt.value.value) for t in stmt.targets if isinstance(t, ast.Name))
    return out


def unbounded_caches(sources: list[str]) -> list[str]:
    """``functools.cache`` imports and uses, and ``lru_cache`` calls (as
    decorators or not) whose ``maxsize`` is not a positive integer: a
    literal, or a module-level name of any of the ``sources`` bound to one.
    A bare ``@lru_cache`` keeps its default bound of 128.  Each finding is
    "source index:line"."""
    constants = _int_constants(sources)

    def bounded(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            size = constants.get(node.id)
        else:
            size = node.value if isinstance(node, ast.Constant) else None
        return type(size) is int and size > 0

    out = []
    for k, source in enumerate(sources):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
                unbounded = called == "lru_cache" and sizes and not bounded(sizes[0])
            elif isinstance(node, ast.ImportFrom):
                unbounded = node.module == "functools" and any(a.name == "cache" for a in node.names)
            else:
                unbounded = (
                    isinstance(node, ast.Attribute)
                    and node.attr == "cache"
                    and getattr(node.value, "id", None) == "functools"
                )
            if unbounded:
                out.append(f"{k}:{node.lineno}")
    return out


def test_checker_finds_unbounded_caches():
    sources = [
        "import functools\nfrom functools import lru_cache\n_N = 8\n"
        "@lru_cache(maxsize=_N)\ndef a(x): pass\n"
        "@functools.lru_cache(16)\ndef b(x): pass\n"
        "@lru_cache\ndef c(x): pass\n"
        "@lru_cache(typed=True)\ndef d(x): pass\n"
        "@lru_cache(maxsize=None)\ndef e(x): pass\n"
        "@functools.lru_cache(None)\ndef f(x): pass\n"
        "g = lru_cache(maxsize=None)(len)\n"
        "@functools.cache\ndef h(x): pass\n"
        "@lru_cache(maxsize=_M)\ndef i(x): pass\n"
        "@lru_cache(maxsize=_FLOAT)\ndef j(x): pass\n"
        "@lru_cache(maxsize=0.5)\ndef k(x): pass\n",
        "_M = 4\n_FLOAT = 2.0\nfrom functools import cache\ncache = 1\n",
    ]
    assert sorted(unbounded_caches(sources)) == [
        "0:12", "0:14", "0:16", "0:17", "0:21", "0:23", "1:3"
    ]


def test_caches_are_bounded():
    assert unbounded_caches([p.read_text(encoding="utf-8") for p in PACKAGE]) == []
