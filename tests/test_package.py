"""Checks on the package's source as a whole."""
import ast
from pathlib import Path

import sessionpi

PACKAGE = Path(sessionpi.__file__).parent

# top-level definitions the package itself never refers to, and why
# they stay
UNREFERENCED = {
    "parse_process": "public API",
    "maximal_parallel_subterms": "traced by bench/spans.py; deleting it"
                                 " waits for ROADMAP item 6",
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_in(fn: ast.AST) -> set[str]:
    """The names a function or lambda binds in its own scope: its
    parameters, and what its body stores, defines or imports outside
    the functions and classes nested in it, less what it declares
    global or nonlocal."""
    a = fn.args
    bound = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                             a.vararg, a.kwarg) if p is not None}
    outer = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).partition(".")[0])
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            if not isinstance(node, ast.Lambda):
                bound.add(node.name)
            continue  # its body is a scope of its own
        todo.extend(ast.iter_child_nodes(node))
    return bound - outer


def _uses(tree: ast.Module) -> set[str]:
    """What a module refers to: the names it imports, the names it reads
    that no enclosing function binds, and the attributes it reads of
    the package's modules (`sx.binder`, but not `r.binder`)."""
    modules = {a.asname or a.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level
               and node.module is None for a in node.names}
    used = set()
    todo = [(tree, frozenset())]
    while todo:
        node, bound = todo.pop()
        if isinstance(node, _FUNCTIONS):
            bound = bound | _bound_in(node)
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                used.add(node.id)
        elif isinstance(node, ast.Attribute):
            v = node.value
            if isinstance(v, ast.Name) and v.id in modules - bound:
                used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        todo += [(child, bound) for child in ast.iter_child_nodes(node)]
    return used


def test_every_top_level_definition_has_a_caller():
    # a `def` or `class` counts as used when the package imports it,
    # reads it by a name no enclosing function binds, or reads it as an
    # attribute of a package module; a mention in a docstring, a local
    # variable or another object's attribute of the same name does not
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] = path.name
        used |= _uses(tree)
    unused = {name: module for name, module in defined.items()
              if name not in used}
    assert unused.keys() - UNREFERENCED.keys() == set(), unused
    # an allowed name that gains a caller leaves the list
    assert UNREFERENCED.keys() <= unused.keys(), unused


# the package's dataclasses: records that are filled in or changed after
# they are made
MUTABLE_RECORDS = {"TVar", "OpenSel", "DualOpen", "SVar"}


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
