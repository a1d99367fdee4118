"""``src/`` holds only the system: its modules import nothing at top level
beyond the standard library, PySpark (with py4j), numpy and ``repro``
itself. Read from the source's import statements; nothing is imported."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = set(sys.stdlib_module_names) | {"pyspark", "py4j", "numpy", "repro"}


def _imported(tree: ast.AST):
    """The top-level module name of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_the_standard_library_pyspark_and_numpy():
    files = sorted(SRC.rglob("*.py"))
    assert files
    outside = {f"{path.relative_to(SRC)}: {name}"
               for path in files
               for name in _imported(ast.parse(path.read_text(), str(path)))
               if name not in ALLOWED}
    assert not outside, sorted(outside)


def _unused_imports(tree: ast.Module):
    """The names ``tree``'s module-level imports bind that the module never
    reads. ``from __future__`` imports bind nothing."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_src_modules_use_every_name_they_import():
    unused = {f"{path.relative_to(SRC)}: {name}"
              for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))}
    assert not unused, sorted(unused)
