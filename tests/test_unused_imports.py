"""No module of the library, the tests, the golden generator, the tools or
the demos imports a name it never reads, and no function of the library
takes a parameter it never reads.

No linter ships with the project, and deleting code tends to leave its
imports and parameters behind; ``ast`` is enough to find them.
``__init__.py`` is left out of the import check because its imports are
the package's exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
LIBRARY = sorted((ROOT / "src" / "routedkl").glob("*.py"))
SOURCES = sorted(
    [p for p in (ROOT / "src" / "routedkl").glob("*.py") if p.name != "__init__.py"]
    + [p for d in ("tests", "tests/golden", "tools", "demos") for p in (ROOT / d).glob("*.py")]
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


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter in ``source``, other than
    ``self``, that its function's body never reads; a method's name is
    qualified by its class."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, args = f"{scope}{child.name}", child.args
                params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
                read = {
                    n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend(
                    f"{name}.{p.arg}" for p in params if p and p.arg != "self" and p.arg not in read
                )
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_unused_parameters_finds_an_unread_parameter():
    source = (
        "def f(a, b, *args, c, **kw):\n    b = 1\n    return kw\n"
        "class K:\n    def m(self, x, y):\n"
        "        def g():\n            return x\n        return g\n"
    )
    assert unused_parameters(source) == ["f.a", "f.b", "f.args", "f.c", "K.m.y"]


def test_no_unused_parameters():
    found = {
        str(path.relative_to(ROOT)): names
        for path in LIBRARY
        if (names := unused_parameters(path.read_text()))
    }
    # The one exception: perfbench calls ``init_logits(prompt, prefix)``
    # for every prefix a run's table lacks, and the row depends on the
    # prefix alone.
    assert found == {"src/routedkl/tasks.py": ["SynthTask.init_logits.prompt"]}
