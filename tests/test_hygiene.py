"""Source hygiene of the package, checked with the standard-library ast.

Every name a module lists in ``__all__`` is defined in it and read by the
package or a demo (or is an oracle or operator on the allowlist below), and no
module imports a name it never uses.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hodgebench"
MODULES = sorted(p for p in PACKAGE.glob("*.py"))
DEMOS = sorted((PACKAGE.parent.parent / "demos").glob("*.py"))

# the __all__ names that no module or demo reads, each with why it stays
# public: an oracle that the tests compare a command's route against, or an
# operator of the paper that a test checks directly
UNREAD_PUBLIC_NAMES = {
    "algebroids.is_elliptic_at": "the one-point ellipticity oracle of levi's stacked SVDs",
    "algebroids.jacobiator": "the Jacobi-identity oracle of d_squared_residual",
    "levi.gc_ellipticity_via_bivector": "the generalized-complex oracle of the classification",
    "neumann.hodge_split": "the three-way Hodge decomposition, checked directly",
    "sobolev.lambda_tangential": "the tangential multiplier of the appendix, checked directly",
    "sobolev.double_commutator": "an appendix commutator, checked directly and by criterion 8",
    "sobolev.nested_commutator": "an appendix commutator, checked by criterion 8",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return None


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound(alias) for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return names


def _bound(alias):
    return alias.asname or alias.name.split(".")[0]


def _imports(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield _bound(alias), node.lineno


def _used_names(tree):
    """Names read anywhere, string annotations ("list[ScalarExpr]") included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def _reads(tree):
    """(name, names read) per top-level statement: the name of the function
    or class it defines (None for other statements) and every name it reads,
    as a name or an attribute."""
    for top in tree.body:
        defined = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        read = {node.id for node in ast.walk(top)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
        yield defined, read


def test_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    tree = _tree(path)
    names = _all_names(tree)
    if names is None:
        return
    missing = sorted(set(names) - _top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names not defined: {missing}"
    assert len(names) == len(set(names)), f"{path.name}: __all__ repeats a name"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree) | set(_all_names(tree) or ())
    unused = [(name, line) for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_every_public_name_is_read_or_an_allowed_oracle():
    trees = {path: _tree(path) for path in MODULES + DEMOS}
    reads = [(path, defined, read) for path, tree in trees.items()
             for defined, read in _reads(tree)]
    unread = set()
    for path in MODULES:
        for name in _all_names(trees[path]) or ():
            # a read inside the name's own definition does not count
            if not any(name in read and (other, defined) != (path, name)
                       for other, defined, read in reads):
                unread.add(f"{path.stem}.{name}")
    assert not unread - set(UNREAD_PUBLIC_NAMES), (
        "public names that nothing in src/ or demos/ reads; move each into the "
        f"tests that use it, or allow it with a reason: {sorted(unread - set(UNREAD_PUBLIC_NAMES))}")
    assert not set(UNREAD_PUBLIC_NAMES) - unread, (
        f"allowed names that are read or gone: {sorted(set(UNREAD_PUBLIC_NAMES) - unread)}")
