"""Every public parameter has an effect: a static guard over the package.

A parameter that a public function or method never reads is an option that
changes nothing, so callers and tests must cover a configuration that does
not exist.  The parse tree of each module is walked with the standard
library `ast`; a parameter counts as read when its name is loaded anywhere
in the body, nested functions included.
"""

import ast
from pathlib import Path

import sublevel_lab

PACKAGE = Path(sublevel_lab.__file__).parent

# Ignored parameters the benchmark still passes positionally; each goes when
# the benchmark stops passing it.
ALLOWED = {
    # bench/workloads.py:294 and bench/tests/test_tracing.py:21
    ("remez.py", "remez_check", "n_grid"),
    ("remez.py", "remez_check", "per_component"),
    # bench/workloads.py:312-334
    ("remez.py", "classical_remez_check", "n_grid"),
    ("remez.py", "classical_remez_check", "per_component"),
}


def unread_parameters(source: str):
    """(qualified name, parameter) for each parameter that a public
    module-level function, or a public method of a module-level class, never
    reads.  The `self` or `cls` of a method is not an option and is
    skipped."""
    tree = ast.parse(source)
    functions = [(node.name, node, False) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(f"{cls.name}.{node.name}", node, True)
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    for qualname, node, is_method in functions:
        if any(part.startswith("_") for part in qualname.split(".")):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        loaded = {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params[1:] if is_method else params:
            if p.arg not in loaded:
                yield qualname, p.arg


def test_every_public_parameter_is_read():
    found = {(path.name, qualname, param)
             for path in PACKAGE.glob("*.py")
             for qualname, param in unread_parameters(path.read_text())}
    assert sorted(found - ALLOWED) == []
    # an entry whose parameter is gone or now read leaves the allowlist
    assert sorted(ALLOWED - found) == []
