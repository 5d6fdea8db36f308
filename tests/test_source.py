"""Rules that the package source itself must keep."""

import ast
from pathlib import Path

import entdist


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so a runtime check written as one
    # silently stops checking; checks raise typed errors instead
    sources = sorted(Path(entdist.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {', '.join(found)}"
