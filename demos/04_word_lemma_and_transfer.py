#!/usr/bin/env python3
"""Pigeonhole searches: vertex copies, the left-variable word lemma, transfer.

Three escalating searchers: a forest guaranteeing monochromatic embedded
copies, the smallest alphabet making word colorings depend only on the cut
block, and the transfer of word witnesses to tree maps through leading /
good / very good points.  Ends with the full pipeline on a small forest.
"""

from treeramsey import halesjewett as hj
from treeramsey import maps, trees

print("== monochromatic embedded copies ==")
two = trees.point_forest(2)
host = hj.monochromatic_host_search(two, 2, 6)
print(f"two incomparable points, two colors: host = {list(host.parent)} (pigeonhole)")
print(f"one color returns the forest itself: {hj.monochromatic_host_search(two, 1, 6) == two}")

print("\n== the word lemma ==")
for a, l in [(1, 2), (2, 1), (2, 2)]:
    cert = hj.hj_search(a, l, 2, 3)
    print(f"|A|={a}, |L|={l}, b=2: minimal alphabet {cert.i_size} "
          f"({len(cert.witnesses)} colorings certified)")

print("\n== product form, two derivations ==")
direct = hj.hj_product_search([1, 1], [1, 1], 2, 3, mode="direct")
reduced = hj.hj_product_search([1, 1], [1, 1], 2, 3, mode="reduction")
print(f"direct search: alphabet {direct.i_size}; single-map reduction: {reduced.i_size}")

print("\n== transfer: from words to tree maps ==")
pt = trees.point_forest(1)
p = (0, 1, 0)  # identity on A; the block hits its cut first, then falls into A
pi, j = hj.build_pi(pt, 2, 1, p)
print(f"word map {p} over A+(Q x I) transfers to pi = {pi.values} with injection {j.values}")
print(f"pi classifies as rigid: {maps.classify(pi).rigid_surjection}")
for letter in (0, 1):
    flags = hj.classify_point(pt, 2, 1, p, (0, (letter,)))
    print(f"  point (s, ({letter},)): {flags}")

rho = hj._sealed_tree_map(1, pt, ())
r = hj.build_r(pt, 2, 1, p, 0, rho)
print(f"companion r with r o p^x = rho o pi^v: {r.values}")

print("\n== exhaustive transfer verification on a cell ==")
c2f = trees.forest([None, 0])
count, _ = hj.verify_transfer_cell(c2f, 2, 2)
print(f"2-chain forest, alphabet 2, |A|=2: {count} word maps verified (all of them)")

print("\n== the full pipeline ==")
result = hj.lp_pipeline([1], [two], 2)
print(f"forest {list(two.parent)}, b=2: alphabet {result.i_size}, "
      f"host {list(result.host.parent)}, fanned out to {list(result.tensors[0].forest.parent)}")
print(f"{len(result.certificates)} colorings certified; sample certificate:")
cert = result.certificates[0]
print(f"  coloring {cert.coloring} -> transfer map {cert.t_maps[0]}, color {cert.color}")
