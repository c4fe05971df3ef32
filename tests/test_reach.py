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

``python tests/test_reach.py`` prints how many top-level definition lines the walk
from ``cli.main`` and ``cli.entry`` alone reaches, of how many in all, then each
module's line count and their total, as ``wc -l src/ghzlab/*.py`` prints them, each
beside its code lines, and the totals of ``tests/*.py`` and ``perfbench/*.py``.

One more pin reads the same parse: no module reads another module's underscore name.
"""
import ast
import io
import tokenize
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


def reached_lines(roots=(("cli", "main"), ("cli", "entry"))) -> tuple:
    """(reached, total): the lines of the top-level definitions reached from ``roots``,
    and of all of them. A definition's lines run from its ``def``, ``class`` or
    assignment line to its last; a statement that binds several names counts once."""
    spans = {(module, name): (module, node.lineno, node.end_lineno)
             for module, name in top_level_names() for node in [MODULES[module][0][name]]}

    def lines(keys):
        return sum(end - start + 1 for _, start, end in {spans[key] for key in keys if key in spans})
    return lines(reach(roots)), lines(spans)


def root_names() -> set:
    used = set().union(*(used_names(path) for path in ROOT_FILES))
    return {("cli", "main"), ("cli", "entry")} | {
        key for key in top_level_names() if key[1] in used}


#: Directories whose ``*.py`` files the report totals, beside src/.
TOTALLED = ("tests", "perfbench")


def line_count(path: Path) -> int:
    """The file's newlines, as ``wc -l`` counts them."""
    return path.read_bytes().count(b"\n")


#: Tokens that hold no code: a comment, line ends and indentation.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines that hold a token other than a comment and lie outside every module,
    class and function docstring. Deleting a comment or a docstring leaves it unchanged."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = {line for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type not in NOT_CODE for line in range(token.start[0], token.end[0] + 1)}
    return len(code - docstrings)


def line_report() -> list:
    """One line per module, its line count, its code lines and its path, then the two
    totals; then one total line for each directory of TOTALLED."""
    counts = {f"src/ghzlab/{path.name}": (line_count(path), code_lines(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    total, total_code = map(sum, zip(*counts.values()))
    width = len(str(total))
    return ([f"{lines:>{width}} {code:>{width}} {name}" for name, (lines, code) in counts.items()]
            + [f"{total} {total_code:>{width}} total"]
            + [f"{sum(map(line_count, (REPO / name).glob('*.py')))} {name}/*.py total"
               for name in TOTALLED])


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_top_level_name_is_reached_or_allowlisted():
    reached = reach(root_names() | set(ALLOWLIST))
    assert sorted(top_level_names() - reached) == []


@pytest.mark.parametrize("key", sorted(ALLOWLIST), ids=".".join)
def test_an_allowlist_entry_exists_is_unreached_and_says_why(key):
    assert key in top_level_names()
    assert key not in reach(root_names())
    reason = ALLOWLIST[key]
    assert reason.strip() and "\n" not in reason


def test_reached_lines_count_the_definition_spans():
    # The total, summed here from each module's parse: every top-level def, class and
    # assignment that binds a name other than a dunder, from its first line to its last.
    total = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if any(not (name.startswith("__") and name.endswith("__")) for name in names):
                total += node.end_lineno - node.lineno + 1
    reached, counted = reached_lines()
    assert counted == total and 0 < reached <= total
    assert reached_lines(()) == (0, total)
    assert reached_lines(top_level_names()) == (total, total)


def test_line_report_totals_the_module_counts():
    *modules, total, tests_total, perfbench_total = line_report()
    counts = {line.split()[2]: (int(line.split()[0]), int(line.split()[1])) for line in modules}
    assert counts == {f"src/ghzlab/{path.name}": (len(path.read_text().splitlines()),
                                                  code_lines(path.read_text()))
                      for path in sorted(SRC.glob("*.py"))}
    assert total.split() == [*map(str, map(sum, zip(*counts.values()))), "total"]
    for name, line in [("tests", tests_total), ("perfbench", perfbench_total)]:
        paths = sorted((REPO / name).glob("*.py"))
        assert paths
        assert line.split() == [str(sum(len(path.read_text().splitlines()) for path in paths)),
                                f"{name}/*.py", "total"]


def test_code_lines_skip_comments_blank_lines_and_docstrings():
    # Code: the import, the class and def lines, both lines of the string that is
    # not a docstring, and the return.
    snippet = '''"""A module
docstring."""
# a comment
import os  # a trailing comment


class Shape:
    """A class docstring."""

    def area(self):
        """A function
        docstring."""
        text = """a string
        that is no docstring"""
        return text
'''
    assert code_lines(snippet) == 6
    assert code_lines("") == code_lines("# only a comment\n") == code_lines('"""Only."""\n') == 0
    assert code_lines("x = 1\n\n\ny = 2\n") == 2


def test_no_module_reads_another_modules_private_name():
    # A leading underscore keeps a name to its module: no module imports one from a
    # sibling, or reads one as ``module._name``.
    reads = []
    for module, (_, imports) in MODULES.items():
        reads += [f"{module}: {target}.{name}" for target, name in imports.values()
                  if name is not None and private(name)]
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imports and imports[node.value.id][1] is None
                    and private(node.attr)):
                reads.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert reads == []


if __name__ == "__main__":
    reached, total = reached_lines()
    print(f"{reached} of {total} top-level definition lines are reached from cli.main and cli.entry")
    print("\n".join(line_report()))
