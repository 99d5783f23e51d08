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
