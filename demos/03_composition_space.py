#!/usr/bin/env python3
"""The sealed composition space and its Ramsey domain, checked exhaustively.

Sealed rigid surjections between initial subtrees of tagged host trees form a
partial monoid g * f = f o g^y with a truncation (cut the codomain below its
second largest vertex) and a norm (the domain).  This script builds elements,
multiplies and truncates them, then runs the exhaustive axiom checkers and a
Ramsey/pigeonhole decision on a small family.
"""

from treeramsey import framework as fw
from treeramsey import trees

C2, C3, C4 = trees.chain(2), trees.chain(3), trees.chain(4)

print("== elements and the product ==")
amb = {name: fw.Ambient(name, t) for name, t in [("S", C2), ("T", C3), ("V", C4)]}
g = fw.DomainElement(amb["V"], 3, amb["T"], 2, (0, 0, 1, 2))
f = fw.DomainElement(amb["T"], 1, amb["S"], 1, (0, 1))
gf = fw.space_mul(g, f)
print(f"g = {g}\nf = {f}\ng*f = {gf}")

print("\n== truncation walks the codomain down ==")
x = fw.DomainElement(amb["T"], 2, amb["S"], 1, (0, 0, 1))
while True:
    print(f"  {x}")
    nxt = fw.truncate(x)
    if nxt == x:
        break
    x = nxt

print("\n== extension ==")
a = fw.restrict_element(g, 1)
print(f"g restricted to codomain cut 1: {a}")
print(f"g extends it: {fw.extends(g, a)}")

print("\n== exhaustive axiom checks ==")
for bound in (2, 3):
    space = fw.check_space_axioms(bound)
    domain = fw.check_domain_axioms(bound)
    print(
        f"  bound {bound}: space axioms {'ok' if space.ok else 'VIOLATED'} "
        f"({space.checked} checks), domain axioms {'ok' if domain.ok else 'VIOLATED'} "
        f"({domain.checked} checks)"
    )

print("\n== a Ramsey decision on families ==")
p_elements = fw.maximal_elements(amb["T"], amb["S"], 1)
fam_p = fw.FamilySet(frozenset(p_elements), "P")
f_elements = fw.maximal_elements(amb["V"], amb["T"], 2)
fam_f = fw.FamilySet(frozenset(f_elements), "F")
rep = fw.check_R(fam_f, fam_p, 2)
print(f"|P| = {len(fam_p)}, |F| = {len(fam_f)}, condition (R) at b=2: {rep.verdict}")
if rep.counterexample:
    print(f"  defeating coloring over {len(rep.items)} products: {rep.counterexample}")

y = fam_p.fiber_bases()[-1]
fib = fw.fiber(fam_p, y)
a = fw.restrict_element(f_elements[-1], y.cut_dom)
lp = fw.check_LP(fam_p, y, fam_f, a, 2)
print(f"fiber at {y}: {len(fib)} elements; condition (LP) there: {lp.verdict}")

print("\n== empirical cross-check of the abstract implication ==")
flags = fw.scan_lp_r_consistency(3, 2)
print(f"bound 3, b=2: {'no anomalies' if not flags else flags}")
