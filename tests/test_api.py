"""The package holds no code that only its tests call: every public top-level
function or class of a module is exported by `hilbert_gauss` or named
somewhere in `src/` outside its own definition.  The command line
(`cli.py`) is an entry point, so its definitions are exempt; the names it
reads still count as uses.
"""

import ast
import pathlib
from collections import Counter

import hilbert_gauss

PACKAGE = pathlib.Path(hilbert_gauss.__file__).parent


def names_in(node) -> Counter:
    """How often each identifier is read, imported or defined under `node`."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.rpartition(".")[2]] += 1
    return names


def test_every_public_definition_is_exported_or_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((names_in(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        if module == "cli.py":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if hasattr(hilbert_gauss, node.name):
                continue
            if everywhere[node.name] - names_in(node)[node.name] == 0:
                unused.append(f"{module[:-3]}.{node.name}")
    assert unused == []


def test_only_harness_reads_input():
    # Input formats have one reader, in harness (the command line writes the
    # output), so no other module names json or opens a file.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("harness.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text())
        if names_in(tree)["json"] or any(isinstance(n, ast.ImportFrom) and n.module == "json" for n in ast.walk(tree)):
            found.append(f"{path.name} names json")
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and "open" in (getattr(n.func, "id", None), getattr(n.func, "attr", None)):
                found.append(f"{path.name}:{n.lineno} calls {ast.unparse(n.func)}")
    assert found == []
