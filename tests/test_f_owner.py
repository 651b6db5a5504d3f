"""One owner calls f: no function in src/diskbern calls its f parameter
except the owner, bivariate._f_at, through which _sample_points (f at
points) and _node_values (f at a table of nodes) read f, the independent
constructions kept as oracles, and the univariate layer, whose f is 1-D.
A new loop over f fails here; route it through the owner instead.
"""

import ast
from pathlib import Path

import diskbern

SRC = Path(diskbern.__file__).parent

ALLOWED = {
    "bivariate._f_at": "the owner: f at the points of _sample_points and the nodes of _node_values",
    "disk.quadrant_bernstein_type_via_transforms": "the transform path, the closed form's oracle",
    "univariate.bernstein_shifted": "the univariate operator samples its 1-D f at its nodes",
    "univariate.c_tau_shifted": "hands f composed with tau^-1 to bernstein_shifted",
}

# Calls that call a callable argument on the caller's behalf.
APPLY = {"map", "starmap", "vectorize", "frompyfunc"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls_f(call):
    if _name(call.func) == "f":
        return True
    return _name(call.func) in APPLY and any(_name(a) == "f" for a in call.args)


def _binds_f(node):
    return any(a.arg == "f" for a in ast.walk(node.args) if isinstance(a, ast.arg))


def _body_calls_f(func):
    """Whether func's body, nested functions and lambdas included, calls f,
    skipping nested scopes that take their own f."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and _binds_f(node):
            continue
        if isinstance(node, ast.Call) and _calls_f(node):
            return True
        todo.extend(ast.iter_child_nodes(node))
    return False


def f_callers(src=SRC):
    """module.qualname of every function with an f parameter that calls it."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _binds_f(child) and _body_calls_f(child):
                    found.add(name)
                visit(child, name)
            else:
                visit(child, prefix)

    for path in sorted(Path(src).glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_only_the_owner_and_the_oracles_call_f():
    assert f_callers() == set(ALLOWED)


def test_a_new_loop_over_f_is_found(tmp_path):
    (tmp_path / "extra.py").write_text(
        "def table(f, n):\n"
        "    return [f(k / n, 0.0) for k in range(n + 1)]\n\n"
        "def wrapped(f, xs):\n"
        "    def g(x):\n"
        "        return f(x, x)\n"
        "    return list(map(g, xs))\n\n"
        "def mapped(f, xs, ys):\n"
        "    return list(map(f, xs, ys))\n\n"
        "def shadowed(f, xs):\n"
        "    return [(lambda f: f)(x) for x in xs]\n")
    assert f_callers(tmp_path) == {"extra.table", "extra.wrapped", "extra.mapped"}
