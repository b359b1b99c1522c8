#!/usr/bin/env python3
"""The rigid-surjection calculus: injections, restrictions, conjugate leaves.

A rigid surjection f: T -> S is half of a perfect Galois connection: some
embedding e: S -> T satisfies f o e = id and e o f below id.  The witness is
unique: the fiberwise meet, which is each fiber's first vertex.  That
candidate doubles as the rigidity decision: if it fails verification, no
witness exists.
"""

from treeramsey import trees
from treeramsey.enumeration import (
    all_embeddings,
    all_rigid_surjections,
    rigid_surjection_values,
    rigid_surjections_with_injection,
)
from treeramsey.maps import (
    TreeMap,
    classify,
    compose,
    conjugate_leaf,
    injection_of,
    restrict_conjugate,
    restrict_initial,
    rigid_from_embedding,
    try_injection,
)

C2, C3 = trees.chain(2), trees.chain(3)
Y = trees.tree([None, 0, 0])
BROOM = trees.tree([None, 0, 0, 0])

print("== classification ==")
f = TreeMap(C3, C2, (0, 0, 1))
print(f"chain map {f.values}: {classify(f)}")
g = TreeMap(Y, C2, (0, 1, 1))
print(f"fork map {g.values}: rigid? {try_injection(g) is not None}")
print("  (the fiber meet lands at the root, which maps to the wrong value)")

print("\n== injections invert ==")
e = injection_of(f)
print(f"injection of {f.values} is {e.values}")
back = rigid_from_embedding(e)
print(f"the largest-below formula recovers a map with that injection: {back.values}")
emb = TreeMap(C2, Y, (0, 2))
print(f"embedding {emb.values} into the fork generates {rigid_from_embedding(emb).values}")

print("\n== many maps share one injection ==")
for e in all_embeddings(C2, trees.chain(4)):
    group = rigid_surjections_with_injection(e)
    print(f"  injection {e.values}: {len(group)} rigid surjections")

print("\n== composition ==")
f2 = TreeMap(trees.chain(4), C3, (0, 1, 1, 2))
h = compose(f, f2)
print(f"{f.values} after {f2.values} = {h.values}, injection {injection_of(h).values}")

print("\n== restrictions ==")
q = TreeMap(BROOM, Y, (0, 1, 0, 2))
print(f"broom onto fork: {q.values}")
r = restrict_initial(q, 1)
print(f"  cut at fork vertex 1: domain {list(r.dom.parent)}, values {r.values} (sealed)")

print("\n== conjugate leaves ==")
i = TreeMap(Y, BROOM, (0, 1, 3))
for x in Y.leaves:
    print(f"  leaf {x} of the fork pairs with broom leaf {conjugate_leaf(i, x)}")
rx = restrict_conjugate(q, 1)
print(f"truncating {q.values} along the conjugate of leaf 1: {rx.values} onto {list(rx.cod.parent)}")

print("\n== census on small trees ==")
for s in trees.all_trees(2):
    for t in trees.all_trees(4):
        n = len(all_rigid_surjections(t, s))
        ns = len(rigid_surjection_values(t, s, True))
        print(f"  {list(t.parent)} -> {list(s.parent)}: {n} rigid, {ns} sealed")
