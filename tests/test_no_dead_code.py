"""Dead-code guard for the package sources, by static reading alone.

Every module-level function, class and constant of src/rotormesh/*.py is
read somewhere in the package outside its own definition; a re-export
from __init__.py counts. No module but __init__.py, whose imports are the
re-exports, imports a name it never reads.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rotormesh"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _defined(statement: ast.stmt) -> list[str]:
    """Names a module-level statement defines, dunder names aside."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        return [statement.name]
    targets = {ast.Assign: lambda s: s.targets,
               ast.AnnAssign: lambda s: [s.target]}.get(type(statement))
    if targets is None:
        return []
    return [node.id for target in targets(statement)
            for node in ast.walk(target)
            if isinstance(node, ast.Name) and not node.id.startswith("__")]


def _read(node: ast.AST) -> set[str]:
    """Names read under node: loaded names, attribute names, and names
    imported from a module."""
    return ({n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {alias.name for n in ast.walk(node)
               if isinstance(n, ast.ImportFrom) for alias in n.names})


def test_every_module_level_name_is_read():
    statements = [(module, s) for module, tree in TREES.items()
                  for s in tree.body]
    reads = [_read(s) for _, s in statements]
    dead = [f"{module[:-3]}.{name}"
            for i, (module, statement) in enumerate(statements)
            for name in _defined(statement)
            if not any(name in r for j, r in enumerate(reads) if j != i)]
    assert not dead, f"defined but never read in the package: {dead}"


def test_no_unused_imports():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{module[:-3]}: {bound}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   for bound in [alias.asname or alias.name.split(".")[0]]
                   if bound not in loaded]
    assert not unused, f"imported but never read: {unused}"
