"""JSON forms for trees, maps, colorings, reports, and the fixtures file.

Every payload carries a schema name and version; loaders refuse version
mismatches.  Trees serialize as {"kind": "tree"|"forest", "parent": [...]}
with null marking the root (or component minima); vertex ids are 0-based.
The fixtures file is append-only: an existing key can only ever be asserted
equal, never rewritten.
"""

from __future__ import annotations

import json
import os
from typing import Any, Union

from .colorsearch import SearchStats
from .errors import NotCanonical, SchemaError
from .maps import TreeMap
from .trees import OrderedForest, OrderedTree, canonicalize
from .witness import WitnessReport

SCHEMA_VERSIONS = {
    "tree": 1,
    "map": 1,
    "coloring": 1,
    "report": 1,
    "fixtures": 1,
}


def _check_version(payload: Any, schema: str) -> None:
    if not isinstance(payload, dict):
        raise SchemaError(f"expected a {schema} object, got {type(payload).__name__}")
    if payload.get("schema") != schema:
        raise SchemaError(f"expected schema {schema!r}, got {payload.get('schema')!r}")
    if payload.get("version") != SCHEMA_VERSIONS[schema]:
        raise SchemaError(
            f"schema {schema} version {payload.get('version')!r} unsupported "
            f"(expected {SCHEMA_VERSIONS[schema]})"
        )


def _field(payload: dict, key: str, what: str) -> Any:
    """payload[key], or SchemaError naming the missing key."""
    if key not in payload:
        raise SchemaError(f"{what} payload lacks {key!r}")
    return payload[key]


def _int(value: Any, what: str) -> int:
    """value if it is a JSON integer (not a bool or a float), else SchemaError."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(value: Any, what: str, nullable: bool = False) -> tuple:
    """A JSON array of integers (null allowed where nullable) as a tuple, else SchemaError."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be an array, got {value!r}")
    return tuple(None if nullable and v is None else _int(v, f"{what} entry") for v in value)


def tree_to_json(t: Union[OrderedTree, OrderedForest]) -> dict:
    kind = "tree" if isinstance(t, OrderedTree) else "forest"
    return {
        "schema": "tree",
        "version": SCHEMA_VERSIONS["tree"],
        "kind": kind,
        "parent": list(t.parent),
    }


def tree_from_json(payload: dict, normalize: bool = False) -> Union[OrderedTree, OrderedForest]:
    _check_version(payload, "tree")
    parent = payload.get("parent")
    if not isinstance(parent, list):
        raise SchemaError("tree payload needs a parent array")
    entries = _ints(parent, "tree parent", nullable=True)
    kind = payload.get("kind", "tree")
    if kind == "forest":
        return OrderedForest(entries)
    if kind != "tree":
        raise SchemaError(f"unknown tree kind {kind!r}")
    try:
        return OrderedTree(entries)
    except NotCanonical:
        if not normalize:
            raise
        canon, _ = canonicalize(entries)
        return canon


def map_to_json(m: TreeMap) -> dict:
    return {
        "schema": "map",
        "version": SCHEMA_VERSIONS["map"],
        "dom": tree_to_json(m.dom),
        "cod": tree_to_json(m.cod),
        "values": list(m.values),
    }


def map_from_json(payload: dict, normalize: bool = False) -> TreeMap:
    _check_version(payload, "map")
    dom = tree_from_json(_field(payload, "dom", "map"), normalize=normalize)
    cod = tree_from_json(_field(payload, "cod", "map"), normalize=normalize)
    if not isinstance(dom, OrderedTree) or not isinstance(cod, OrderedTree):
        raise SchemaError("maps go between trees, not forests")
    return TreeMap(dom, cod, _ints(_field(payload, "values", "map"), "map values"))


def coloring_from_json(payload: dict) -> tuple[tuple[int, ...], int]:
    _check_version(payload, "coloring")
    colors = _ints(_field(payload, "colors", "coloring"), "coloring colors")
    return colors, _int(_field(payload, "b", "coloring"), "coloring b")


def report_to_json(r: WitnessReport) -> dict:
    return {
        "schema": "report",
        "version": SCHEMA_VERSIONS["report"],
        "verdict": r.verdict,
        "b": r.b,
        "mode": r.mode,
        "s": list(r.s),
        "t": list(r.t),
        "u": list(r.u),
        "counterexample": None if r.counterexample is None else list(r.counterexample),
        "stats": {
            "vertices": r.stats.vertices,
            "edges": r.stats.edges,
            "nodes": r.stats.nodes,
            "colorings_examined": r.stats.colorings_examined,
        },
    }


def report_from_json(payload: dict) -> WitnessReport:
    _check_version(payload, "report")
    raw_stats = _field(payload, "stats", "report")
    if not isinstance(raw_stats, dict):
        raise SchemaError("report stats must be an object")
    keys = ("vertices", "edges", "nodes", "colorings_examined")
    stats = SearchStats(
        **{k: _int(_field(raw_stats, k, "report stats"), f"report stats {k}") for k in keys}
    )

    def parents(key: str) -> tuple:
        return _ints(_field(payload, key, "report"), f"report {key}", nullable=True)

    verdict, mode = _field(payload, "verdict", "report"), _field(payload, "mode", "report")
    if verdict not in ("holds", "fails", "cap_exceeded"):
        raise SchemaError(f"report verdict {verdict!r} is not holds, fails or cap_exceeded")
    if mode not in ("mn", "sealed"):
        raise SchemaError(f"report mode {mode!r} is not mn or sealed")
    cex = payload.get("counterexample")
    return WitnessReport(
        verdict=verdict,
        b=_int(_field(payload, "b", "report"), "report b"),
        mode=mode,
        s=parents("s"),
        t=parents("t"),
        u=parents("u"),
        counterexample=None if cex is None else _ints(cex, "report counterexample"),
        stats=stats,
    )


def dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload))


def load_fixtures(path: str) -> dict:
    if not os.path.exists(path):
        return {"schema": "fixtures", "version": SCHEMA_VERSIONS["fixtures"], "entries": {}}
    payload = load_json(path)
    _check_version(payload, "fixtures")
    return payload


def record_fixture(path: str, key: str, value: Any) -> bool:
    """Append-only recording: store on first computation, assert equality after.

    Returns True when the value was newly stored, False when it matched an
    existing entry; raises SchemaError on a mismatch.
    """
    payload = load_fixtures(path)
    entries = payload["entries"]
    if key in entries:
        if entries[key] != value:
            raise SchemaError(
                f"fixture {key!r} changed: stored {entries[key]!r}, computed {value!r}"
            )
        return False
    entries[key] = value
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    save_json(path, payload)
    return True
