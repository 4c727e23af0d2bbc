"""No module of the library or the tests imports a name it never reads.

No linter ships with the project, and deleting code tends to leave its
imports behind; ``ast`` is enough to find them. ``__init__.py`` is left
out because its imports are the package's exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
SOURCES = sorted(
    [p for p in (ROOT / "src" / "routedkl").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """The names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_an_unread_name():
    source = "import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n"
    assert unused_imports(source) == ["b", "os"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
