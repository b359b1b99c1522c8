import ast
import importlib
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


def test_every_exported_name_resolves():
    # a deleted function must not leave its name behind in __all__
    stale = {}
    for path in SOURCES:
        if path.stem == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"treeramsey.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if missing:
            stale[path.name] = missing
    assert stale == {}
