"""Source hygiene: no module of the package or its tests imports a name it
never uses.  Standard library only: the check walks each file's syntax tree."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "iterint").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                used |= _annotation_names(annotation)
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "import os\nimport os.path as osp\nfrom a import b, c\n"
        "__all__ = ['c']\ndef f(x: 'Path') -> None:\n    return b\n"
    )
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
