"""`python -O` strips assert statements, so no answer of the library may
rest on one: every guard in src/arithsurf raises a typed error instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "arithsurf"


def test_library_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"
