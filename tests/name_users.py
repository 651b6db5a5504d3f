"""The ast walker of the one-path guards (test_one_evaluator.py,
test_one_front_door.py): which functions of a source tree name which
guarded functions."""

import ast
from pathlib import Path

import diskbern

SRC = Path(diskbern.__file__).parent


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def users(guarded, src=SRC):
    """module.qualname of each function that names a guarded function (a call,
    or a reference passed on), mapped to the names it uses; a lambda counts
    as the function it is in."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}.{child.name}")
                continue
            if isinstance(child, (ast.Name, ast.Attribute)) and _name(child) in guarded:
                found.setdefault(prefix, set()).add(_name(child))
            visit(child, prefix)

    for path in sorted(Path(src).glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found
