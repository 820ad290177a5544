"""Dead-code guard for the package sources, by static reading alone.

Every module-level function, class and constant of src/rotormesh/*.py is
read somewhere in the package outside its own definition and outside
import lines, so a re-export from __init__.py is not a read. A name that
__init__.py re-exports may instead be read by the benchmark (bench/*.py)
or in README's library sketch, the public API's one worked example. No
module but __init__.py, whose imports are the re-exports, imports a name
it never reads. Every field of the configuration dataclasses is read as an
attribute somewhere in the package.
"""

import ast
import re
from pathlib import Path

import rotormesh

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotormesh"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
BENCH = [ast.parse(path.read_text(), str(path))
         for path in sorted((ROOT / "bench").glob("*.py"))]
# the python block of README from "## Library sketch" to the next heading
SKETCH = ast.parse(re.search(
    r"^## Library sketch\n.*?```python\n(.*?)```.*?^## ",
    (ROOT / "README.md").read_text(), re.S | re.M).group(1))


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
    """Names read under node: loaded names and attribute names. A name in
    an import line is bound there, not read."""
    return ({n.id for n in ast.walk(node)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _public() -> set[str]:
    """The names __init__.py re-exports."""
    return {alias.asname or alias.name
            for n in TREES["__init__.py"].body
            if isinstance(n, ast.ImportFrom) for alias in n.names}


def test_every_module_level_name_is_read():
    statements = [(module, s) for module, tree in TREES.items()
                  for s in tree.body]
    reads = [_read(s) for _, s in statements]
    outside = set().union(_read(SKETCH), *map(_read, BENCH)) & _public()
    dead = [f"{module[:-3]}.{name}"
            for i, (module, statement) in enumerate(statements)
            for name in _defined(statement)
            if name not in outside
            and not any(name in r for j, r in enumerate(reads) if j != i)]
    assert not dead, ("defined but never read in the package, and not a "
                      f"public name read by bench or README: {dead}")


def test_library_sketch_names_resolve():
    """Every rm.<name> of README's library sketch is on the package, so a
    sketch line that the guard above counts as a read is one that runs."""
    used = {n.attr for n in ast.walk(SKETCH) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "rm"}
    assert used, "the library sketch reads nothing through rm"
    missing = sorted(name for name in used if not hasattr(rotormesh, name))
    assert not missing, f"README's library sketch names {missing}"


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


# the dataclasses a motion config file is parsed into
CONFIG_CLASSES = ("MotionConfig", "FlightCondition", "MotionSeries",
                  "RbfConfig", "RbfKernel")


def test_every_config_field_is_read():
    """A field nothing reads holds a config value that is parsed, checked
    and then ignored. Reading it as an attribute anywhere in the package
    counts, self.rpm inside the omega property too."""
    fields = [(node.name, statement.target.id)
              for tree in TREES.values() for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES
              for statement in node.body
              if isinstance(statement, ast.AnnAssign)]
    assert {name for name, _ in fields} == set(CONFIG_CLASSES)
    read = {n.attr for tree in TREES.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{name}.{field}" for name, field in fields
              if field not in read]
    assert not unread, f"config fields never read in the package: {unread}"
