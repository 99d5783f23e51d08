"""Checks on the package's source as a whole."""
import ast
from pathlib import Path

import sessionpi

PACKAGE = Path(sessionpi.__file__).parent

# top-level definitions the package itself never refers to, and why
# they stay
UNREFERENCED = {
    "parse_process": "public API",
    "construct_partner": "public; traced by bench/spans.py",
    "maximal_parallel_subterms": "traced by bench/spans.py; deleting it"
                                 " waits for ROADMAP item 7",
}


def test_every_top_level_definition_has_a_caller():
    # a `def` or `class` counts as used when the package names it as a
    # name, an attribute or an import; a mention in a docstring does not
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = {name: module for name, module in defined.items()
              if name not in used}
    assert unused.keys() - UNREFERENCED.keys() == set(), unused
    # an allowed name that gains a caller leaves the list
    assert UNREFERENCED.keys() <= unused.keys(), unused


# the package's dataclasses: records that are filled in or changed after
# they are made
MUTABLE_RECORDS = {"Source", "Transparency", "ProgressResult",
                   "TVar", "OpenSel", "DualOpen", "SVar"}


def _dataclass_frozen(decorator: ast.expr) -> bool | None:
    """Whether a class decorator is `dataclass(frozen=True)`; None when
    it is no dataclass decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    name = call.func if call else decorator
    if getattr(name, "id", getattr(name, "attr", None)) != "dataclass":
        return None
    return any(k.arg == "frozen" and getattr(k.value, "value", False)
               for k in (call.keywords if call else ()))


def test_no_frozen_dataclasses():
    # every dataclass generates and compiles its methods on each start
    # of the program, about 0.8 ms a class: immutable records are
    # `NamedTuple`s, and syntax nodes `syntax._node` classes
    frozen, mutable = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for d in node.decorator_list:
                    kind = _dataclass_frozen(d)
                    if kind is not None:
                        (frozen if kind else mutable).add(node.name)
    assert frozen == set(), frozen
    assert mutable == MUTABLE_RECORDS, mutable
