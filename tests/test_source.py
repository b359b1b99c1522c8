import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "treeramsey").glob("*.py"))


def test_no_assert_in_library():
    # python -O strips assert statements, so no verification may rely on one
    asserts = {
        path.name: node.lineno
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    }
    assert len(SOURCES) >= 10 and asserts == {}
