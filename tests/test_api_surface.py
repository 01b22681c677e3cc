"""API surface: every function, class and method of the package is named
somewhere in the package besides its own definition, so that no second path
for a concept lives on for the tests alone; and every name a file of the
package, its tests or its demos imports is read in that file."""
import ast
from pathlib import Path

import convexkan

SRC = Path(convexkan.__file__).parent
ROOT = Path(__file__).parent.parent

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


def unread_imports(tree):
    """The names a module imports but never reads; a name listed in its
    ``__all__`` counts as read.  ``__future__`` imports bind nothing."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_imported_name_is_read():
    files = [path for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert SRC / "training.py" in files and len(files) > 20
    unread = {f"{path.relative_to(ROOT)}: {name}"
              for path in files for name in unread_imports(ast.parse(path.read_text()))}
    assert sorted(unread) == [], "delete the imports"
