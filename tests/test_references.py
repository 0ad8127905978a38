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

An attribute read counts for a member of one class only where the class
of `x` in `x.name` is known, so that two classes' members of the same name
do not share their reads (`IntervalSet.empty` once hid behind
`_LogForm.empty`).  The class of `x` is known when `x` is

- a package class itself (`IntervalSet.from_pairs`), or `self` or `cls`
  in one of its methods;
- a variable of one function or module whose every binding is a parameter
  annotated with a package class or a plain assignment of an expression of
  known class;
- a call of a package class, or of a function, method or property whose
  return annotation names a package class (`max_i = _certified_max(...)`
  makes `max_i.upper` a read of `Extremum.upper`);
- a field or property, annotated with a package class, of a known class;
- a parameter without annotation of a module-level function that its file
  only calls by name, each call passing an argument of one known class
  (`run_all(args)`).

Where the class is unknown (a loop variable, a tuple target, any other
parameter without annotation, a numpy array), or where the known class has
no member of that name, the read falls back to its bare name and counts
for every class's member of that name.  The one exception is the result of
a `parse_args(...)` call: an argparse namespace is no package object, so a
read such as `args.seed` counts for no member at all.
"""

import ast
import re
from collections import ChainMap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sublevel_lab"
SCRIPT_DIRS = ("demos", "bench")
# the key of an attribute read whose receiver's class is unknown
UNKNOWN = True
# the class of a `parse_args(...)` result, whose reads count for nothing
NAMESPACE = "argparse.Namespace"

# Public names that no module calls, each with the reason it stays.
ALLOWED = {}

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


class PackageTypes:
    """The package's classes (private ones included), their bases and
    members, and the package class that each annotation names."""

    def __init__(self, trees):
        self.bases, self.members, self.member_types = {}, {}, {}
        self.returns = {}
        class_defs = [node for tree in trees for node in tree.body
                      if isinstance(node, ast.ClassDef)]
        self.names = {node.name for node in class_defs}
        for node in class_defs:
            self.bases[node.name] = [self.annotation(b) for b in node.bases]
            members = self.members[node.name] = set()
            types = self.member_types[node.name] = {}
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    members.add(item.name)
                    types[item.name] = self.annotation(item.returns)
                elif (isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    members.add(item.target.id)
                    types[item.target.id] = self.annotation(item.annotation)
                elif isinstance(item, ast.Assign):
                    members.update(t.id for t in item.targets
                                   if isinstance(t, ast.Name))
        for tree in trees:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    kind = self.annotation(node.returns)
                    # two module-level functions of one name: unknown
                    if self.returns.get(node.name, kind) != kind:
                        kind = None
                    self.returns[node.name] = kind

    def annotation(self, node):
        """The package class an annotation names, or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # X | None names X
            sides = [self.annotation(s) for s in (node.left, node.right)
                     if not (isinstance(s, ast.Constant) and s.value is None)]
            return sides[0] if len(sides) == 1 else None
        else:
            return None
        return name if name in self.names else None

    def lineage(self, cls):
        """cls and its package ancestors."""
        out = [cls]
        for base in self.bases.get(cls, ()):
            if base is not None:
                out += self.lineage(base)
        return out

    def owner(self, cls, attr):
        """The class whose `attr` a read `x.attr` with x of class cls reads,
        or None when no package class in cls's lineage defines it."""
        for c in self.lineage(cls):
            if attr in self.members.get(c, ()):
                return c
        return None

    def of(self, node, scope):
        """The package class of the value of an expression, or None."""
        if isinstance(node, ast.Name):
            if node.id in scope:
                return scope[node.id]
            return node.id if node.id in self.names else None
        if isinstance(node, ast.Attribute):
            if node.attr in self.names:      # a class read off its module
                return node.attr
            cls = self.of(node.value, scope)
            owner = cls and self.owner(cls, node.attr)
            return self.member_types[owner].get(node.attr) if owner else None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in scope:
                    return None
                if func.id in self.names:
                    return func.id
                return self.returns.get(func.id)
            if isinstance(func, ast.Attribute):
                if func.attr == "parse_args":
                    return NAMESPACE
                if func.attr in self.names:
                    return func.attr
                cls = self.of(func.value, scope)
                if cls:
                    owner = self.owner(cls, func.attr)
                    return self.member_types[owner].get(func.attr) if owner else None
                # a module's function, as in `thinrect.build_function(...)`
                if isinstance(func.value, ast.Name) and func.value.id not in scope:
                    return self.returns.get(func.attr)
        return None


def _own_nodes(body):
    """The nodes of a function or module body in source order, without the
    insides of nested scopes."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            yield from _own_nodes(ast.iter_child_nodes(node))


def _local_classes(scope_node, types, outer, self_class, module=None,
                   inferred=None):
    """name -> package class (None where unknown) of each variable that one
    function or `module` binds; `inferred` gives the class of unannotated
    parameters."""
    local = {}
    scope = ChainMap(local, outer)

    def bind(name, cls):
        local[name] = cls if local.get(name, cls) == cls else None

    if isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope_node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                bind(extra.arg, None)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in getattr(scope_node, "decorator_list", ()))
        for i, arg in enumerate(params):
            if i == 0 and self_class and not static:
                bind(arg.arg, self_class)
            else:
                bind(arg.arg, types.annotation(arg.annotation)
                     or (inferred or {}).get(arg.arg))
        body = scope_node.body if isinstance(scope_node.body, list) else [scope_node.body]
    else:
        body = scope_node.body
    typed = set()
    for node in _own_nodes(body):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            bind(node.targets[0].id, types.of(node.value, scope))
            typed.add(id(node.targets[0]))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bind(node.target.id, types.annotation(node.annotation))
            typed.add(id(node.target))
    for node in _own_nodes(body):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and id(node) not in typed):
            bind(node.id, None)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and scope_node is not module):
            # a nested definition; module-level ones and imports are no
            # variables here, so their calls resolve by return annotation
            bind(node.name, None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bind(node.name, None)
    return local


def _walk(tree, types, inferred):
    """(node, enclosing definitions as node ids, variable classes) for each
    node under `tree`, each node before its children; `inferred` maps the
    id of a function to the classes of its unannotated parameters."""
    module_scope = _local_classes(tree, types, {}, None, module=tree)
    # (node, enclosing definitions, variable classes, class whose body it is)
    stack = [(tree, (), ChainMap(module_scope), None)]
    while stack:
        node, owners, scope, class_body = stack.pop()
        yield node, owners, scope
        inner = owners + (id(node),)
        child_scope, child_class = scope, None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            child_scope = scope.new_child(_local_classes(
                node, types, scope, class_body, inferred=inferred.get(id(node))))
        elif isinstance(node, ast.ClassDef):
            child_class = node.name
        stack.extend((child, inner, child_scope, child_class)
                     for child in ast.iter_child_nodes(node))


def _parameter_classes(tree, types) -> dict:
    """id(function) -> {parameter: class} for each module-level function of
    `tree` that the file only calls by name, and each of its unannotated
    parameters to which every call passes an argument of one known class."""
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    passed = {name: [] for name in funcs}   # per call: {parameter: class}
    calls = set()
    for node, _, scope in _walk(tree, types, {}):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in funcs and node.func.id not in scope):
            calls.add(id(node.func))
            args = funcs[node.func.id].args
            names = [a.arg for a in args.posonlyargs + args.args]
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                funcs.pop(node.func.id)
                continue
            values = [*zip(names, node.args),
                      *((kw.arg, kw.value) for kw in node.keywords)]
            passed[node.func.id].append(
                {name: types.of(value, scope) for name, value in values})
        elif (isinstance(node, ast.Name) and node.id in funcs
              and id(node) not in calls and node.id not in scope):
            funcs.pop(node.id)      # read as a value: its callers are unknown
    out = {}
    for name, node in funcs.items():
        classes = out[id(node)] = {}
        for arg in node.args.posonlyargs + node.args.args:
            seen = {call.get(arg.arg) for call in passed[name]}
            if arg.annotation is None and len(seen) == 1 and None not in seen:
                classes[arg.arg] = seen.pop()
    return out


def references(tree, types, strings=False) -> dict:
    """(bare name, how it is read) -> the enclosing definitions (as node
    ids) of each place under `tree` that loads the name as a variable
    (False) or reads it as an attribute (the package class whose member is
    read, or UNKNOWN); with `strings`, also each string constant that
    spells a dotted name, docstrings excepted."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = {}
    for node, owners, scope in _walk(tree, types, _parameter_classes(tree, types)):
        keys = ()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            keys = ((node.id, False),)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            cls = types.of(node.value, scope)
            if cls != NAMESPACE:
                keys = ((node.attr, (cls and types.owner(cls, node.attr)) or UNKNOWN),)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in docstrings
              and DOTTED.fullmatch(node.value)):
            parts = node.value.split(".")
            keys = [(parts[0], False)]
            cls = parts[0] if parts[0] in types.names else None
            for part in parts[1:]:
                owner = cls and types.owner(cls, part)
                keys.append((part, owner or UNKNOWN))
                cls = owner and types.member_types[owner].get(part)
        for key in keys:
            found.setdefault(key, []).append(owners)
    return found


def unreferenced_names() -> set:
    """Qualified `module.name` of each public package name that nothing
    outside the tests references."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    types = PackageTypes(modules.values())
    in_src = {}
    for tree in modules.values():
        for key, places in references(tree, types).items():
            in_src.setdefault(key, []).extend(places)
    in_scripts = set()
    for folder in SCRIPT_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            in_scripts.update(references(ast.parse(path.read_text()), types,
                                         strings=True))
    missing = set()
    for module, tree in modules.items():
        for qualname, bare, node in public_names(tree):
            if "." in qualname:
                # a member counts only as an attribute read of its class, of
                # a subclass that inherits it, or of an unknown receiver
                cls = qualname.split(".")[0]
                keys = [(bare, UNKNOWN)] + [
                    (bare, c) for c in types.names
                    if cls in types.lineage(c) and types.owner(c, bare) == cls]
            else:
                keys = [key for key in in_src.keys() | in_scripts
                        if key[0] == bare]
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
