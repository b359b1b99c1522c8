"""In-memory spans around the library's public names, for the traced run.

A span wraps a public function as its callers look it up: the attribute of
every treeramsey module that holds the original object is swapped for the
wrapper, and methods are swapped on their class.  The benchmark's own files
call the library through module attributes, so they see the wrappers too.
Nothing under src/ changes, and ``Tracer.uninstall`` puts every original
back.

Each span adds to its name's call count and self time, and its duration to
its parent's child time: self time is the duration minus the time covered by
child spans.  Spans outside the hot ``trees`` and ``maps`` layers are also
kept as records (name, parent record, start, end) and written out when the
benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from treeramsey import colorsearch, enumeration, framework, halesjewett, maps, trees, witness
from treeramsey.errors import ResourceCapExceeded

# (owner, attribute, span name); the layer is the span name's first part
SPANS = [
    (trees.OrderedTree, "meet", "trees.meet"),
    (trees.OrderedTree, "below", "trees.below"),
    (trees.OrderedTree, "lex_compare", "trees.lex_compare"),
    (trees.OrderedTree, "ancestors", "trees.ancestors"),
    (trees, "initial_subtree", "trees.initial_subtree"),
    (trees, "canonicalize", "trees.canonicalize"),
    (trees, "tensor", "trees.tensor"),
    (trees, "q_set", "trees.q_set"),
    (trees, "oplus", "trees.oplus"),
    (maps.TreeMap, "__post_init__", "maps.TreeMap"),
    (maps, "is_morphism", "maps.is_morphism"),
    (maps, "is_embedding", "maps.is_embedding"),
    (maps, "try_injection", "maps.try_injection"),
    (maps, "injection_of", "maps.injection_of"),
    (maps, "is_rigid_surjection", "maps.is_rigid_surjection"),
    (maps, "is_sealed", "maps.is_sealed"),
    (maps, "classify", "maps.classify"),
    (maps, "compose", "maps.compose"),
    (maps, "rigid_from_embedding", "maps.rigid_from_embedding"),
    (maps, "restrict_initial", "maps.restrict_initial"),
    (maps, "conjugate_leaf", "maps.conjugate_leaf"),
    (maps, "restrict_conjugate", "maps.restrict_conjugate"),
    (maps, "check_block_condition", "maps.check_block_condition"),
    (enumeration, "all_rigid_surjections", "enumeration.all_rigid_surjections"),
    (enumeration, "all_embeddings", "enumeration.all_embeddings"),
    (framework, "check_space_axioms", "framework.space_axioms"),
    (framework, "check_domain_axioms", "framework.domain_axioms"),
    (witness, "check_witness_mn", "witness.decide"),
    (witness, "check_witness_sealed", "witness.decide"),
    (colorsearch, "find_proper_coloring", "colorsearch.find_proper_coloring"),
    (halesjewett, "verify_transfer_cell", "halesjewett.transfer"),
    (halesjewett, "hj_search", "halesjewett.hj"),
]
HOT_LAYERS = ("trees", "maps")  # aggregated only: millions of calls per pass
MAX_RECORDS = 1_000_000


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.records: list[tuple[str, int, float, float]] = []
        self.dropped = 0
        self.counters: dict[str, int] = defaultdict(int)
        # open frames: [child time, index of the nearest kept record or -1]
        self._stack: list[list] = [[0.0, -1]]
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _span(
        self, name: str, fn: Callable, after: Callable | None = None, on_cap: Callable | None = None
    ) -> Callable:
        stack, clock = self._stack, time.perf_counter
        calls, self_time, errors = self.calls, self.self_time, self.errors
        keep = name.split(".")[0] not in HOT_LAYERS
        records = self.records

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep and len(records) < MAX_RECORDS:
                index = len(records)
                records.append((name, parent[1], 0.0, 0.0))
            else:
                index = parent[1]
                self.dropped += keep
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                errors[name, type(exc).__name__] += 1
                if on_cap is not None and isinstance(exc, ResourceCapExceeded):
                    on_cap(kwargs)
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                calls[name] += 1
                self_time[name] += elapsed - frame[0]
                if index != parent[1]:
                    records[index] = (name, parent[1], start, end)
            if after is not None:
                after(out)
            return out

        return traced

    def _after(self, name: str, original: Any) -> Callable | None:
        counters = self.counters
        if name.startswith("enumeration."):
            misses = [original.cache_info().misses]

            def count_maps(out):
                now = original.cache_info().misses
                if now != misses[0]:
                    misses[0] = now
                    counters[name + ".maps_out"] += len(out)

            return count_maps
        if name == "colorsearch.find_proper_coloring":
            def count_nodes(result):
                counters["colorsearch.nodes"] += result.stats.nodes

            return count_nodes
        if name == "witness.decide":
            def count_hypergraph(report):
                counters["witness.vertices"] += report.stats.vertices
                counters["witness.edges"] += report.stats.edges

            return count_hypergraph
        if name == "halesjewett.transfer":
            def count_words(out):
                counters["halesjewett.word_maps"] += out[0]

            return count_words
        return None

    def _on_cap(self, name: str) -> Callable | None:
        counters = self.counters
        if name == "colorsearch.find_proper_coloring":
            def count_capped_nodes(kwargs):
                # the search stops once it has visited max_nodes nodes (at most b - 1 more)
                cap = kwargs.get("max_nodes")
                counters["colorsearch.nodes"] += colorsearch.max_nodes_default() if cap is None else cap

            return count_capped_nodes
        return None

    def _counting_generator(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[name] += 1
                yield item

        return counted

    # -- installation ----------------------------------------------------------

    def _swap(self, owner: Any, attr: str, original: Any, replacement: Any, modules) -> None:
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, replacement)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("treeramsey")]
        for owner, attr, name in SPANS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            span = self._span(name, original, self._after(name, original), self._on_cap(name))
            self._swap(owner, attr, original, span, modules)
        original = halesjewett.enum_colorings
        self._undo.append((halesjewett, "enum_colorings", original))
        halesjewett.enum_colorings = self._counting_generator("halesjewett.hj.colorings", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def layer(self, layer: str) -> tuple[int, float]:
        """(calls, self time) summed over the layer's spans."""
        names = [n for n in self.calls if n.split(".")[0] == layer]
        return sum(self.calls[n] for n in names), sum(self.self_time[n] for n in names)

    def cap_hits(self, name: str) -> int:
        return self.errors.get((name, ResourceCapExceeded.__name__), 0)

    def build_time(self) -> float:
        """Decide spans minus the colorsearch and enumeration spans directly under them."""
        excluded = defaultdict(float)
        for name, parent, start, end in self.records:
            if parent >= 0 and name.split(".")[0] in ("colorsearch", "enumeration"):
                if self.records[parent][0] == "witness.decide":
                    excluded[parent] += end - start
        return sum(
            end - start - excluded[i]
            for i, (name, _, start, end) in enumerate(self.records)
            if name == "witness.decide"
        )

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, parent, start, end in self.records:
                out.write(json.dumps({"name": name, "parent": parent, "start": start, "end": end}) + "\n")
