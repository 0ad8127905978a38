"""Every public package name has a caller outside the tests: a static guard.

A public name that only the tests use is test code living in the package;
it belongs in the test that uses it, or nowhere.  The parse tree of each
file is walked with the standard library `ast`.  A public name is a
module-level function, class or constant of a module under
`src/sublevel_lab`, or a method or annotated (dataclass) field of a
module-level class, whose name does not start with an underscore.  It
counts as referenced when its bare name is loaded as a variable or read as
an attribute, and a method (or property) or a field only when it is read
as an attribute, `x.name`, never through a bare variable of the same name
(passing a field to its constructor by keyword is no read),

- in a file under `src/`, outside the name's own definition and outside
  `__init__.py`, whose imports only re-export;
- in a file under `demos/` or `bench/`, where a string constant that spells
  a dotted name also counts, because the benchmark's tracer names spans
  and wrapped functions by string.

In a dotted string, the first part counts as a variable and the rest as
attributes.

Names are matched without their module or class, so a method still shares
its references with every attribute of the same name: an unused method
hides behind any other class's attribute that is read under its name
(`IntervalSet.empty` once hid behind `_LogForm.empty`).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sublevel_lab"
SCRIPT_DIRS = ("demos", "bench")

# Public names that no module calls, each with the reason it stays.
ALLOWED = {
    "poly.restrict_to_line":
        "documented API: the README's poly bullet offers restriction to "
        "real line segments whose complex disk stays inside the ball",
    "poly.LineSlice.eval":
        "documented API: evaluates the slice that poly.restrict_to_line "
        "returns, the restriction the README's poly bullet offers",
    **{f"poly.LineSlice.{name}":
       "documented API: the segment of the slice that poly.restrict_to_line "
       "returns, the restriction the README's poly bullet offers"
       for name in ("base", "direction", "halflength")},
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def public_names(tree):
    """(qualified name, bare name, definition node) for each public
    module-level name of one parsed module and each public method and
    annotated field of its module-level classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name, item
                    elif (isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)
                          and not item.target.id.startswith("_")):
                        yield f"{node.name}.{item.target.id}", item.target.id, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id, node


def references(tree, strings=False) -> dict:
    """(bare name, read as an attribute?) -> the enclosing definitions (as
    node ids) of each place under `tree` that loads the name as a variable
    or reads it as an attribute; with `strings`, also each string constant
    that spells a dotted name, docstrings excepted."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = {}
    stack = [(tree, ())]
    while stack:
        node, owners = stack.pop()
        keys = ()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            keys = ((node.id, False),)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            keys = ((node.attr, True),)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in docstrings
              and DOTTED.fullmatch(node.value)):
            keys = tuple((part, i > 0)
                         for i, part in enumerate(node.value.split(".")))
        for key in keys:
            found.setdefault(key, []).append(owners)
        inner = owners + (id(node),)
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return found


def unreferenced_names() -> set:
    """Qualified `module.name` of each public package name that nothing
    outside the tests references."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    in_src = {}
    for tree in modules.values():
        for key, places in references(tree).items():
            in_src.setdefault(key, []).extend(places)
    in_scripts = set()
    for folder in SCRIPT_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            in_scripts.update(references(ast.parse(path.read_text()), strings=True))
    missing = set()
    for module, tree in modules.items():
        for qualname, bare, node in public_names(tree):
            # a method or field counts only as an attribute read
            keys = [(bare, True)] if "." in qualname else [(bare, False), (bare, True)]
            # a use inside the name's own definition does not count
            if not in_scripts.intersection(keys) and all(
                    id(node) in owners
                    for key in keys for owners in in_src.get(key, [])):
                missing.add(f"{module}.{qualname}")
    return missing


def test_every_public_name_has_a_caller():
    assert sorted(unreferenced_names() - set(ALLOWED)) == []


def test_allowlist_is_current():
    # an entry whose name is gone or now referenced leaves the allowlist
    assert sorted(set(ALLOWED) - unreferenced_names()) == []
