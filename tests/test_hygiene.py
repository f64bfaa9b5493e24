"""Source hygiene checks that stand in for a linter.

Every name that a module under src/ or tests/ imports must be read somewhere
in that module. The package __init__.py files are skipped: their imports are
the package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    files = [
        path
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert files
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nimport numpy as np\nfrom a.b import c, d\n\nnp.zeros(d)\n")
    assert unused_imports(path) == [(1, "os"), (3, "c")]
