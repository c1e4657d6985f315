"""The package holds no code that only its tests call: every public top-level
function or class of a module is exported by `hilbert_gauss` or named
somewhere in `src/` outside its own definition.  The command line
(`cli.py`) is an entry point, so its definitions are exempt; the names it
reads still count as uses.  Every public method or property of a class is
read as an attribute in `src/`, overrides a method of a framework class, or
is named in the README as kept for callers, and so is every name
`hilbert_gauss` exports that `src/` does not read.  BLAS's dot is called in
one function, `spectral.row_inner`, and matrix products only where listed.
"""

import ast
import importlib
import pathlib
from collections import Counter

import hilbert_gauss

PACKAGE = pathlib.Path(hilbert_gauss.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def attribute_reads(paths) -> set:
    """The attribute names read under the files at `paths`: `x.rank`, not a local `rank`."""
    return {
        n.attr
        for path in paths
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def reads(node) -> Counter:
    """How often each name is read under `node`, as a variable or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def kept_for_callers() -> str:
    """The README's passage of the names that src/ does not read, kept for callers."""
    readme = (ROOT / "README.md").read_text()
    return readme[readme.index("are kept for callers of the Python API") :].split("\n## ")[0]


def test_every_public_method_is_read_or_named():
    read = attribute_reads(PACKAGE.glob("*.py"))
    kept = kept_for_callers()
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unread = []
    for stem, tree in trees.items():
        module = importlib.import_module(f"hilbert_gauss.{stem}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            frameworks = [b for b in getattr(module, node.name).__mro__ if not b.__module__.startswith("hilbert_gauss")]
            for f in node.body:
                if not isinstance(f, ast.FunctionDef) or f.name.startswith("_") or f.name in read:
                    continue
                if not any(f.name in vars(b) for b in frameworks) and f"`{node.name}.{f.name}`" not in kept:
                    unread.append(f"{stem}.{node.name}.{f.name}")
    # An export is read outside its own definition; the package's import of it is no read.
    exports = {alias.asname or alias.name for n in trees["__init__"].body if isinstance(n, ast.ImportFrom) for alias in n.names}
    everywhere = sum((reads(tree) for stem, tree in trees.items() if stem != "__init__"), Counter())
    for stem, tree in trees.items():
        for node in tree.body:
            if getattr(node, "name", None) not in exports or everywhere[node.name] > reads(node)[node.name]:
                continue
            if f"`{node.name}`" not in kept:
                unread.append(f"{stem}.{node.name}")
    assert unread == []


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


# The functions of src/ that may call BLAS or LAPACK through @, a .dot, np.vdot,
# np.inner, np.matmul or np.linalg.norm, each with what it computes there.  Every
# inner product of coefficients is row_inner's, so its summation order is decided once.
BLAS_CALLERS = {
    "spectral.row_inner": "every inner product of coefficient rows, one row or a stack",
    "spectral._all_finite": "np.vdot(a, a), a finiteness probe that must not warn on overflow",
    "spectral.Subspace.from_frame": "the Gram matrix F F^T of a frame's rows",
    "spectral._check_q_invariance": "F^T (F Q F^T), Q F^T projected back onto the frame's span",
    "spectral.project": "F^T (F y^T), the projection onto a frame",
    "spectral.Spectrum.__init__": "F Q F^T of a frame, and B^T Q B on a frame complement's support",
    "spectral.difference_subspace": "(F0 FV^T) FV and (FV F0^T) F0, and the matrix 2-norm of a residual",
    "regression.DesignOperator.apply": "columns beta, the forward map of a design",
    "regression.DesignPlan.__init__": "the Gram matrix columns^T columns",
    "regression._pullback": "columns Gram^-1 c, a pulled-back functional",
    "regression._hypothesis": "columns G0, the hypothesis range",
    "regression.lse": "columns^T y, the normal equations' right-hand side",
    "processes.eval_vector": "y^T basis, a trajectory on a grid",
    "processes.coeffs_from_trajectory": "basis (weights * values), the quadrature of a trajectory",
}
BLAS_FUNCTIONS = ("np.vdot", "np.inner", "np.matmul", "np.linalg.norm")


def blas_calls(tree, module: str) -> list:
    """(function, line) of each @, .dot, or BLAS_FUNCTIONS name under `tree`,
    the function by its dotted path in `module` ('module' alone at top level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(getattr(node, "op", None), ast.MatMult) or (
            isinstance(node, ast.Attribute) and (node.attr == "dot" or ast.unparse(node) in BLAS_FUNCTIONS)
        ):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_blas_is_called_only_by_row_inner_and_the_listed_products():
    calls = [c for path in sorted(PACKAGE.glob("*.py")) for c in blas_calls(ast.parse(path.read_text()), path.stem)]
    assert [f"{scope}:{line}" for scope, line in calls if scope not in BLAS_CALLERS] == []
    # Each listed function still computes a product: the list names no dead entry.
    assert set(BLAS_CALLERS) - {scope for scope, _ in calls} == set()
