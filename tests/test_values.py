"""Start-up and value semantics of the package's value types.

The types are written out by hand, without dataclasses: importing the package
must not import dataclasses, and the types must keep the equality, hashing,
pickling and read-only fields that their callers rely on.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from treeramsey import colorsearch, framework, halesjewett, maps, trees, witness
from treeramsey.maps import TreeMap

SRC = Path(__file__).resolve().parent.parent / "src"

T = trees.tree([None, 0, 1, 0])
F = TreeMap(trees.chain(3), trees.chain(2), (0, 0, 1))


def test_importing_the_library_does_not_import_dataclasses():
    # -S: no site hooks, so nothing but the package can import dataclasses
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); before = 'dataclasses' in sys.modules; "
        "import treeramsey.framework, treeramsey.halesjewett, treeramsey.witness, treeramsey.cli; "
        "print(before, 'dataclasses' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "False"]


def _round_trips(x):
    return [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]


def test_trees_round_trip_and_compare_by_parent_array():
    for y in _round_trips(T):
        assert type(y) is trees.OrderedTree and y == T and hash(y) == hash(T)
        assert (y.n, y.anc_mask, y.height, y.leaves) == (T.n, T.anc_mask, T.height, T.leaves)
    assert T != trees.tree([None, 0, 1, 1]) and T != trees.forest([None, 0, 1, 0])
    assert T != T.parent and hash(trees.tree(list(T.parent))) == hash(T)
    assert trees.all_trees(4)[-1] == trees.chain(4) and trees.initial_subtree(T, 2) == trees.chain(3)


def test_maps_round_trip_before_and_after_reading_the_injection():
    f = TreeMap(F.dom, F.cod, F.values)
    for read_injection in (False, True):
        if read_injection:
            assert f.injection.values == (0, 2)
        for y in _round_trips(f):
            assert type(y) is TreeMap and y == f and hash(y) == hash(f)
            assert y.injection == f.injection and y.injection.values == (0, 2)
    assert f == F and hash(f) == hash(F) and {f: 1}[F] == 1
    assert f != TreeMap(F.dom, F.cod, (0, 1, 1))
    assert f != TreeMap(trees.tree([None, 0, 0]), F.cod, F.values)
    assert f != F.values and maps._trusted_map(F.dom, F.cod, F.values) == f


def test_forests_round_trip_and_compare_by_parent_array():
    g = trees.forest([None, 0, None])
    assert g.components == ((0, 1), (2,))  # a cached value travels along
    for y in _round_trips(g):
        assert type(y) is trees.OrderedForest and y == g and hash(y) == hash(g)
        assert y.components == g.components and y.minima == (0, 2)
    assert g != trees.forest([None, None, None]) and repr(g) == "OrderedForest([None, 0, None])"


@pytest.mark.parametrize(
    "value, fields",
    [
        (T, ("parent", "n", "anc_mask")),
        (F, ("dom", "cod", "values")),
        (trees.forest([None, 0]), ("parent",)),
    ],
    ids=["tree", "map", "forest"],
)
def test_frozen_fields_refuse_assignment(value, fields):
    if isinstance(value, TreeMap):
        value.injection  # a filled slot stays read-only
    before = copy.deepcopy(value)
    for name in (*fields, "injection", "height", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == before and repr(value) == repr(before)


def test_witness_reports_round_trip_compare_and_stay_unhashable():
    rep = witness.check_witness_mn(2, trees.chain(2), trees.chain(3), trees.chain(3))
    for y in _round_trips(rep):
        assert type(y) is witness.WitnessReport and y == rep and y is not rep
        assert y.stats == rep.stats and repr(y) == repr(rep)
    with pytest.raises(TypeError):
        hash(rep)
    other = copy.copy(rep)
    other.b = 3  # reports stay mutable
    assert other != rep and rep.b == 2
    assert repr(colorsearch.SearchStats(1, 2)) == (
        "SearchStats(vertices=1, edges=2, nodes=0, colorings_examined=0)"
    )


def test_defaults_are_fresh_per_instance():
    a, b = colorsearch.SearchResult(None), colorsearch.SearchResult(None)
    assert a.stats == b.stats and a.stats is not b.stats
    r1 = witness.WitnessReport("holds", 2, "mn", (None,), (None,), (None,), None)
    r2 = witness.WitnessReport("holds", 2, "mn", (None,), (None,), (None,), None)
    assert r1 == r2 and r1.stats is not r2.stats
    c1, c2 = halesjewett.HJCertificate(1), halesjewett.HJCertificate(1)
    c1.witnesses.append(((0,),))
    assert c2.witnesses == [] and framework.AxiomReport().violations == []
    assert maps.KindFlags(True, False, True, False).injection is None


def test_frozen_value_types_hash_their_fields():
    amb = framework.Ambient("T0", trees.chain(2))
    el = framework.DomainElement(amb, 1, amb, 1, (0, 1))
    same = framework.DomainElement(framework.Ambient("T0", trees.chain(2)), 1, amb, 1, [0, 1])
    assert el == same and hash(el) == hash(same) and el.injection == (0, 1)
    fam = framework.FamilySet(frozenset([el]), "P")
    assert fam == framework.FamilySet(frozenset([same]), "P") and len({fam, copy.copy(fam)}) == 1
    flags = halesjewett.PointFlags(True, False, True)
    assert flags == halesjewett.PointFlags(True, False, True)
    assert hash(flags) == hash(halesjewett.PointFlags(True, False, True))
    assert repr(flags) == "PointFlags(leading=True, good=False, very_good=True)"
    with pytest.raises(AttributeError):
        el.cut_dom = 0
    for mutable in (framework.AxiomReport(), colorsearch.SearchStats(), halesjewett.HJCertificate(1)):
        with pytest.raises(TypeError):
            hash(mutable)
