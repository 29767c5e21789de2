"""The package's source holds no dead private name."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wiresplit"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_top_level_private_name_is_read():
    # a top-level _name (not a dunder) that no module of the package reads:
    # a Name it loads, an attribute, or a name it imports. Public names are
    # API and may go unread here
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in ast.walk(node)
                         if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
            else:
                continue
            defined += [(path.name, name) for name in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = [f"{module}: {name}" for module, name in defined if name not in read]
    assert not dead, "read nowhere in the package: " + ", ".join(dead)
