"""What src/ ships: every top-level name of ``ghzlab`` is reached from what runs it.

The walk starts at ``cli.main`` and ``cli.entry`` (the console script), at every
src name that ``tests/test_acceptance.py`` or ``perfbench/*.py`` uses, matched by
name, and at each entry of ALLOWLIST. From a reached definition it follows each
reference: a bare name to its own module's definition or to what that module
imports, and ``module.name`` to that module's definition. It matches names, not
bindings, so a local variable that shadows a definition counts as a use.

Every other top-level name must be in ALLOWLIST with its reason. An entry that
the walk reaches without the list, or that no longer exists, fails, so the list
can only shrink.
"""
import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "ghzlab"
#: Files whose uses of src names are roots, beside cli.main and cli.entry.
ROOT_FILES = [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").glob("*.py"))]

#: (module, name) -> why it ships although nothing above reaches it.
ALLOWLIST = {
    ("qcore", "state_to_json_dict"): "the README's state writer, the inverse of load_state",
    ("optimize", "biseparable_radius_eigen_oracle"):
        "the independent eigensolve check of the biseparable maximum 4",
}


def parse_package() -> dict:
    """module -> (definitions, imports): each top-level definition's node, and what
    each relatively imported name stands for, (module, None) for a module and
    (module, name) for a name."""
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        definitions, imports = {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions.update({t.id: node for t in targets if isinstance(t, ast.Name)})
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        (alias.name, None) if node.module is None else (node.module, alias.name))
        modules[path.stem] = (definitions, imports)
    return modules


MODULES = parse_package()


def resolve(module: str, name: str):
    """The (module, name) of the definition that ``module.name`` reads, or None."""
    definitions, imports = MODULES[module]
    if name in definitions:
        return module, name
    target = imports.get(name)
    return resolve(*target) if target and target[1] is not None else None


def references(module: str, node: ast.AST):
    """The definitions a node's names and ``module.name`` attributes read."""
    imports = MODULES[module][1]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield resolve(module, sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = imports.get(sub.value.id)
            if target and target[1] is None:
                yield resolve(target[0], sub.attr)


def used_names(path: Path) -> set:
    """Every identifier a file names: names, attributes, imports and getattr strings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def top_level_names() -> set:
    return {(module, name) for module, (definitions, _) in MODULES.items()
            for name in definitions if not (name.startswith("__") and name.endswith("__"))}


def reach(roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key is None or key in seen:
            continue
        seen.add(key)
        todo.extend(references(key[0], MODULES[key[0]][0][key[1]]))
    return seen


def root_names() -> set:
    used = set().union(*(used_names(path) for path in ROOT_FILES))
    return {("cli", "main"), ("cli", "entry")} | {
        key for key in top_level_names() if key[1] in used}


def test_every_top_level_name_is_reached_or_allowlisted():
    reached = reach(root_names() | set(ALLOWLIST))
    assert sorted(top_level_names() - reached) == []


@pytest.mark.parametrize("key", sorted(ALLOWLIST), ids=".".join)
def test_an_allowlist_entry_exists_is_unreached_and_says_why(key):
    assert key in top_level_names()
    assert key not in reach(root_names())
    reason = ALLOWLIST[key]
    assert reason.strip() and "\n" not in reason
