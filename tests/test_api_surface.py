"""API surface: every function, class and method of the package is named
somewhere in the package besides its own definition, and every parameter
default is passed by some call in the package, so that no second path for
a concept lives on for the tests alone; and every name a file of the
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

# parameter defaults no call in the package passes, each with the reason it stays
ARCHITECTURE = "checkpoints and the reference fixtures hold other architectures"
ALLOWED_DEFAULTS = {
    "fem.solve(tol)": "perfbench reads its default as the bound on a recomputed residual",
    "fem.unit_square_hole_mesh(radius)": "the specimen's hole size, checked and refused "
                                         "on its own",
    "network.KANModel.create(dims)": ARCHITECTURE,
    "network.KANModel.create(order)": ARCHITECTURE,
    "network.KANModel.create(n_coef)": ARCHITECTURE,
    "cli.main(argv)": "the console script calls main() to parse sys.argv",
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


def defaults(tree):
    """(qualified name, name, position, parameter) of each parameter with a
    default on a top-level function or a method other than ``__init__``;
    ``position`` is its index among a call's positional arguments, or None
    if it is keyword-only."""
    def parameters(fn, qualified, bound):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], first - bound):
            yield qualified, fn.name, i, arg.arg
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield qualified, fn.name, None, arg.arg

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from parameters(node, node.name, False)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name != "__init__":
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield from parameters(item, f"{node.name}.{item.name}", not static)


def calls(tree):
    """(name, call) of each call of a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def passes(call, position, parameter):
    """Whether ``call`` may pass ``parameter``: by keyword (or ``**``), at
    its ``position``, or through a ``*`` argument at or before it."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args))


def test_every_default_is_passed_in_the_package():
    modules = trees()
    by_name = {}
    for tree in modules.values():
        for name, call in calls(tree):
            by_name.setdefault(name, []).append(call)
    unpassed = {
        f"{module}.{qualified}({parameter})"
        for module, tree in modules.items()
        for qualified, name, position, parameter in defaults(tree)
        if not any(passes(call, position, parameter) for call in by_name.get(name, []))
    }
    assert sorted(unpassed - set(ALLOWED_DEFAULTS)) == [], \
        "drop the defaults, or allow them with a reason"
    assert sorted(set(ALLOWED_DEFAULTS) - unpassed) == [], \
        "now passed in the package: drop from ALLOWED_DEFAULTS"


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
