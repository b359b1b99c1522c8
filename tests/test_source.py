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


CACHE_DECORATORS = ("lru_cache", "cache")  # functools names that make a cache table


def _names_a_cache(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in CACHE_DECORATORS) or (
        isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
    )


def _cached_functions():
    """(module stem, name) of every top-level function with a cache decorator,
    and the count of cache mentions per file that decorate no such function."""
    cached, stray = [], {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top = [
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(
                _names_a_cache(d.func if isinstance(d, ast.Call) else d)
                for d in node.decorator_list
            )
        ]
        mentions = sum(_names_a_cache(node) for node in ast.walk(tree))
        if mentions != len(top):
            stray[path.name] = mentions - len(top)
        cached += [(path.stem, name) for name in top]
    return cached, stray


def test_every_lru_cache_is_a_clearable_module_attribute():
    # the benchmark's cold passes and the tests clear caches through module
    # attributes, so a cache on a method, a nested function or a call
    # expression would stay warm: every mention of lru_cache must decorate a
    # top-level function, and that attribute must have cache_clear
    cached, stray = _cached_functions()
    assert stray == {}
    assert ("enumeration", "rigid_surjection_values") in cached
    for stem, name in cached:
        fn = getattr(importlib.import_module(f"treeramsey.{stem}"), name)
        assert callable(getattr(fn, "cache_clear", None)), (stem, name)


# the tables that still grow without bound; bounding them is an open item
UNBOUNDED_TABLES = {
    ("enumeration", "all_embeddings"),
    ("enumeration", "rigid_surjection_values"),
    ("enumeration", "all_rigid_surjections"),
    ("enumeration", "_prefix_table"),
    ("witness", "_sealed_families"),
    ("witness", "_sealed_layer"),
    ("trees", "tensor"),
    ("trees", "q_set"),
    ("trees", "all_trees"),
}


def test_no_new_unbounded_cache():
    # every other table has a finite maxsize, so a long run holds a bounded memory
    cached, _ = _cached_functions()
    sizes = {
        (stem, name): getattr(importlib.import_module(f"treeramsey.{stem}"), name).cache_info().maxsize
        for stem, name in cached
    }
    assert {key for key, size in sizes.items() if size is None} == UNBOUNDED_TABLES
    assert sizes[("maps", "_cached_injection_values")] > 0
    assert sizes[("trees", "_tree_masks")] > 0


def test_value_table_arguments_are_positional_and_required():
    # an lru_cache keys a call by its form: a keyword argument or an omitted
    # default would store the same table under a second key
    import inspect

    from treeramsey.enumeration import rigid_surjection_values

    params = inspect.signature(rigid_surjection_values).parameters.values()
    assert [p.name for p in params] == ["dom", "cod", "sealed"]
    assert all(
        p.kind is inspect.Parameter.POSITIONAL_ONLY and p.default is inspect.Parameter.empty
        for p in params
    )


def _self_calling_nested_functions(paths):
    """'outer.inner' for every function nested in another that calls itself by name."""
    found = []

    def visit(node, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if outer is not None and any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == child.name
                    for call in ast.walk(child)
                ):
                    found.append(f"{outer}.{child.name}")
                visit(child, child.name if outer is None else f"{outer}.{child.name}")
            else:
                visit(child, outer)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def test_no_nested_function_calls_itself():
    # a nested recursion goes one interpreter frame per level, so it ends in
    # RecursionError on deep inputs; tables are built by passes over prefixes
    assert _self_calling_nested_functions(SOURCES) == []


def test_self_calling_nested_functions_are_found(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def outer(n):\n"
        "    def walk(k):\n"
        "        return k and walk(k - 1)\n"
        "    def once(k):\n"
        "        return outer(k)\n"
        "    return walk(n)\n"
        "class C:\n"
        "    def method(self):\n"
        "        def visit(v):\n"
        "            visit(v)\n",
        encoding="utf-8",
    )
    assert _self_calling_nested_functions([source]) == ["outer.walk", "method.visit"]
