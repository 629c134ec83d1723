"""The package holds no code that only the tests use.

Every module-level function of src/autorec must be named, as a name or
an attribute, by other code in src/autorec or perfbench; a helper only
the tests call belongs in an oracle module under tests/.  The one
exception is clear_caches, the cache API that README documents.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "autorec"
DOCUMENTED = {"clear_caches"}


def _named(node, skip=None) -> set:
    """The names and attribute names in node, outside the subtree skip."""
    found, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def test_every_package_function_has_a_caller_outside_the_tests():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in files}
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in trees[path].body:
            if not isinstance(fn, ast.FunctionDef) or fn.name in DOCUMENTED:
                continue
            if not any(fn.name in _named(tree, skip=fn) for tree in trees.values()):
                uncalled.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert not uncalled, uncalled
