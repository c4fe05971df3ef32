"""Every tolerance and default of ``ghzlab`` is written once, as a named constant.

A float literal below 1e-3 (a tolerance, a slack or a stop) may appear in src/
only in the value of a module-level constant, and no function parameter or
argparse flag takes a bare number as its default; each reads a constant.
"""
import ast
from pathlib import Path


SRC = Path(__file__).resolve().parents[1] / "src" / "ghzlab"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def number(node):
    """The value of a numeric literal, a sign included, or None for any other node."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        sign, node = (-1 if isinstance(node.op, ast.USub) else 1), node.operand
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return sign * node.value
    return None


def functions(node, prefix=""):
    """(qualified name, node) of every function and lambda, a method as Class.method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            yield name, child
            yield from functions(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, prefix + child.name + ".")
        else:
            yield from functions(child, prefix)


def numeric_defaults() -> dict:
    """(module, function or call, parameter) -> value of each bare numeric default:
    of a function parameter, or a ``default=`` of add_argument and set_defaults."""
    found = {}
    for module, tree in TREES.items():
        for name, func in functions(tree):
            args = func.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            for arg, default in pairs:
                if default is not None and number(default) is not None:
                    found[module, name, arg.arg] = number(default)
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("add_argument", "set_defaults")):
                for keyword in call.keywords:
                    if keyword.arg is not None and number(keyword.value) is not None:
                        found[module, f"line {call.lineno}", keyword.arg] = number(keyword.value)
    return found


def test_no_small_float_literal_outside_a_module_constant():
    found = []
    for module, tree in TREES.items():
        constants = {id(node) for statement in tree.body
                     if isinstance(statement, (ast.Assign, ast.AnnAssign))
                     for node in ast.walk(statement)}
        found += [f"{module}.py:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0.0 < abs(node.value) < 1e-3 and id(node) not in constants]
    assert found == []


def test_no_bare_numeric_default():
    assert numeric_defaults() == {}
