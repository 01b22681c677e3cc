"""API surface: every function, class and method of the package is named
somewhere in the package besides its own definition, so that no second path
for a concept lives on for the tests alone."""
import ast
from pathlib import Path

import convexkan

SRC = Path(convexkan.__file__).parent

# definitions nothing in the package names, each with the reason it stays
ALLOWED = {
    "bspline.BSplineCurve": "perfbench's bspline.design_rows span patches its design_rows",
    "training.loss": "the independent nodal_forces oracle of the tests and of "
                     "perfbench's discover check",
}


def trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def definitions(tree):
    """(qualified name, name) of each top-level function and class and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def named(tree):
    """Every name the code reads or writes: bare names and attributes.
    Imports and ``__all__`` entries re-export a name; they do not use it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_named_in_the_package():
    modules = trees()
    used = {name for tree in modules.values() for name in named(tree)}
    unused = {
        f"{module}.{qualified}"
        for module, tree in modules.items()
        for qualified, name in definitions(tree)
        if name not in used
    }
    assert sorted(unused - set(ALLOWED)) == [], "delete them, or allow them with a reason"
    assert sorted(set(ALLOWED) - unused) == [], "now named in the package: drop from ALLOWED"
