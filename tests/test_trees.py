import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeramsey import trees
from treeramsey.errors import (
    DuplicateAttachPoint,
    EmptyAlphabet,
    EmptyLinearOrder,
    NotATree,
    NotCanonical,
    VertexOutOfRange,
)

from _oracles import (
    catalan,
    definitional_positions,
    rightmost_path_violation,
    tree_tables_by_recurrence,
)

C1, C2, C3 = trees.chain(1), trees.chain(2), trees.chain(3)
Y = trees.tree([None, 0, 0])


def trees_up_to(n):
    for k in range(1, n + 1):
        yield from trees.all_trees(k)


# --- canonicalize ---------------------------------------------------------


def test_canonicalize_spec_example():
    canon, perm = trees.canonicalize([None, 0, 0, 1])
    assert canon.parent == (None, 0, 1, 0)
    assert perm == (0, 1, 3, 2)


def test_canonicalize_chain_is_identity():
    canon, perm = trees.canonicalize([None, 0, 1])
    assert canon == C3
    assert perm == (0, 1, 2)


def test_canonicalize_rejects_two_roots():
    with pytest.raises(NotATree):
        trees.canonicalize([None, None, 0])


def test_canonicalize_rejects_cycle():
    with pytest.raises(NotATree):
        trees.canonicalize([None, 2, 1])


def test_canonical_constructor_rejects_non_preorder():
    with pytest.raises(NotCanonical):
        trees.tree([None, 0, 0, 1])


def test_canonical_constructor_matches_rightmost_path_walk():
    # every array with parent[i] < i on at most 7 vertices: the one-pass mask
    # check accepts exactly what the climbing walk accepts, with the same tables
    accepted = 0
    for n in range(1, 8):
        for tail in itertools.product(*(range(i) for i in range(1, n))):
            parent = (None,) + tail
            bad = rightmost_path_violation(parent)
            if bad is not None:
                with pytest.raises(NotCanonical) as exc:
                    trees.OrderedTree(parent)
                assert str(exc.value) == f"vertex {bad} does not attach to the rightmost path"
                continue
            t = trees.OrderedTree(parent)
            accepted += 1
            assert t.n == n
            assert (t.anc_mask, t.height, t.leaves) == tree_tables_by_recurrence(parent)
    assert accepted == sum(catalan(n - 1) for n in range(1, 8))


@pytest.mark.parametrize(
    "parent, message",
    [
        ((None, 0.0), "parent[1] = 0.0 must be an int < 1"),
        ((None, 0, True), "parent[2] = True must be an int < 2"),
        ((None, 5, False), "parent[1] = 5 must be an int < 1"),
        ((0.0,), "vertex 0 must be the root"),
    ],
)
def test_parents_must_be_ints_even_when_an_equal_tree_is_in_the_table(parent, message):
    # (None, 0.0) and (None, 0, True) equal valid parent tuples, which are
    # built first; the type test runs before the validation table is read
    trees.OrderedTree((None, 0))
    trees.OrderedTree((None, 0, 1))
    for _ in range(2):
        with pytest.raises(NotCanonical) as exc:
            trees.OrderedTree(parent)
        assert str(exc.value) == message


def test_forest_parents_must_be_ints():
    with pytest.raises(NotCanonical):
        trees.OrderedForest((None, True))


def test_a_parent_list_is_stored_as_a_tuple():
    t = trees.OrderedTree([None, 0, 1])
    assert t.parent == (None, 0, 1) and t == trees.chain(3) and hash(t) == hash(trees.chain(3))


def test_tree_validation_runs_once_per_parent_array():
    trees._tree_masks.cache_clear()
    try:
        first = trees.OrderedTree((None, 0, 1, 0))
        again = trees.OrderedTree((None, 0, 1, 0))
        info = trees._tree_masks.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert again == first and again.anc_mask == first.anc_mask == (1, 3, 7, 9)
        for _ in range(2):  # a refused array is not stored
            with pytest.raises(NotCanonical):
                trees.OrderedTree((None, 0, 0, 1))
        assert trees._tree_masks.cache_info().currsize == 1
    finally:
        trees._tree_masks.cache_clear()


def test_tree_equality_reads_the_parent_array_only():
    t = trees.tree([None, 0, 1, 0])
    assert t == trees.tree([None, 0, 1, 0]) and hash(t) == hash(trees.tree([None, 0, 1, 0]))
    assert repr(t) == "OrderedTree([None, 0, 1, 0])"
    back = pickle.loads(pickle.dumps(t))
    assert back == t and back.anc_mask == t.anc_mask and back.n == 4


def test_canonicalize_idempotent_on_all_small_trees():
    for t in trees_up_to(6):
        canon, perm = trees.canonicalize(t.parent)
        assert canon == t
        assert perm == tuple(range(t.n))


def test_canonical_order_is_the_definitional_order():
    # CANONICAL invariant: numeric order equals the two-clause lexicographic order
    for t in trees_up_to(6):
        assert definitional_positions(t.parent) == list(range(t.n))


@st.composite
def raw_trees(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parent = [None]
    for i in range(1, n):
        parent.append(draw(st.integers(min_value=0, max_value=i - 1)))
    return parent


@st.composite
def isomorphic_relabelings(draw, max_n=7):
    parent = draw(raw_trees(max_n))
    n = len(parent)
    tau = draw(st.permutations(range(n)))
    # repair tau so sibling order (= id order) is preserved: within each child
    # list hand out the drawn labels in increasing order
    sigma = list(tau)
    kids = {}
    for i, p in enumerate(parent):
        kids.setdefault(p, []).append(i)
    for group in kids.values():
        labels = sorted(tau[v] for v in group)
        for v, lab in zip(group, labels):
            sigma[v] = lab
    relabeled = [None] * n
    for v, p in enumerate(parent):
        relabeled[sigma[v]] = None if p is None else sigma[p]
    return parent, relabeled


@settings(max_examples=150, deadline=None)
@given(isomorphic_relabelings())
def test_canonicalize_isomorphism_invariant(pair):
    original, relabeled = pair
    assert trees.canonicalize(original)[0] == trees.canonicalize(relabeled)[0]


@settings(max_examples=150, deadline=None)
@given(raw_trees())
def test_canonicalize_output_matches_definitional_order(parent):
    canon, perm = trees.canonicalize(parent)
    # perm must rank the input vertices exactly as the definitional order does
    assert list(perm) == definitional_positions(parent)
    assert definitional_positions(canon.parent) == list(range(canon.n))


# --- meet and lexicographic comparison ------------------------------------


def test_meet_spec_examples():
    assert Y.meet(1, 2) == 0
    assert C3.meet(1, 2) == 1
    for t in trees_up_to(5):
        for v in range(t.n):
            assert t.meet(v, v) == v


def test_meet_laws_exhaustive():
    for t in trees_up_to(6):
        rng = range(t.n)
        for v, w in itertools.product(rng, rng):
            m = t.meet(v, w)
            assert m == t.meet(w, v)
            assert t.below(m, v) and t.below(m, w)
            # maximality among common predecessors
            for z in rng:
                if t.below(z, v) and t.below(z, w):
                    assert t.below(z, m)
        for v, w, x in itertools.product(rng, rng, rng):
            assert t.meet(t.meet(v, w), x) == t.meet(v, t.meet(w, x))


def test_meet_out_of_range():
    for t in trees_up_to(4):
        for bad in (t.n, -1):
            for v, w in ((bad, 0), (0, bad)):
                with pytest.raises(VertexOutOfRange, match=f"vertex {bad} not in tree of size {t.n}"):
                    t.meet(v, w)


@pytest.mark.parametrize("v, w", [(0, -1), (5, 0), (0, 3), (-1, 2)])
def test_below_out_of_range(v, w):
    # a negative index used to wrap around, a large one to read a missing bit
    with pytest.raises(VertexOutOfRange, match="not in tree of size 3"):
        Y.below(v, w)


def test_lex_compare_spec_examples():
    assert trees.raw_lex_compare([None, 0, 0, 1], 3, 2) == trees.LT
    assert C3.lex_compare(0, 2) == trees.LT
    for t in trees_up_to(4):
        for v in range(t.n):
            assert t.lex_compare(v, v) == trees.EQ


def test_lex_compare_agrees_with_numeric_on_canonical():
    for t in trees_up_to(6):
        for v, w in itertools.combinations(range(t.n), 2):
            assert t.lex_compare(v, w) == trees.LT
            assert t.lex_compare(w, v) == trees.GT


def test_raw_lex_compare_agrees_with_canonicalize_on_relabelled_trees():
    # on non-canonical input the definitional comparison orders vertices as
    # canonicalize's permutation numbers them
    for seed in range(4):
        rng = random.Random(seed)
        for t in trees_up_to(7):
            label = list(range(t.n))
            rng.shuffle(label)
            raw = [None] * t.n
            for v, p in enumerate(t.parent):
                raw[label[v]] = None if p is None else label[p]
            _, perm = trees.canonicalize(raw)
            for v in range(t.n):
                for w in range(t.n):
                    expected = (perm[v] > perm[w]) - (perm[v] < perm[w])
                    assert trees.raw_lex_compare(raw, v, w) == expected, (raw, v, w)


def test_lex_compare_out_of_range():
    with pytest.raises(VertexOutOfRange):
        C2.lex_compare(0, 5)


# --- initial subtrees ------------------------------------------------------


def test_initial_subtree_examples():
    assert trees.initial_subtree(C3, 1) == C2
    assert trees.initial_subtree(trees.tree([None, 0, 1, 0]), 2) == C3
    for t in trees_up_to(5):
        assert trees.initial_subtree(t, t.n - 1) == t


def test_initial_subtree_downward_closed():
    for t in trees_up_to(6):
        for v in range(t.n):
            sub = trees.initial_subtree(t, v)
            members = set(range(v + 1))
            for w in members:
                for anc in t.ancestors(w):
                    assert anc in members
            assert sub.parent == t.parent[: v + 1]


def test_initial_subtree_is_the_validated_prefix():
    # the prefix is cut without running the canonicity pass again: it must be
    # the tree the constructor builds from the same parent prefix, masks and all
    for t in trees_up_to(7):
        assert trees.initial_subtree(t, t.n - 1) is t
        for v in range(t.n):
            cut = trees.initial_subtree(t, v)
            built = trees.OrderedTree(t.parent[: v + 1])
            assert type(cut) is trees.OrderedTree and cut == built
            assert cut.n == built.n and cut.anc_mask == built.anc_mask
            assert cut.height == built.height and cut.leaves == built.leaves


# --- attach and oplus ------------------------------------------------------


def test_attach_spec_examples():
    pt = trees.point_forest(1)
    out, emb_t, emb_f = trees.attach(C1, [0], [pt])
    assert out == C2 and emb_t == (0,) and emb_f == ((1,),)
    out, emb_t, emb_f = trees.attach(C2, [0, 1], [pt, pt])
    assert out.parent == (None, 0, 1, 0)
    out, emb_t, emb_f = trees.attach(C3, [], [])
    assert out == C3 and emb_t == (0, 1, 2)


def test_attach_duplicate_point_rejected():
    pt = trees.point_forest(1)
    with pytest.raises(DuplicateAttachPoint):
        trees.attach(C2, [0, 0], [pt, pt])


def test_attach_embeddings_are_order_preserving():
    f = trees.forest([None, 0, None])
    for t in trees_up_to(4):
        for x in range(t.n):
            out, emb_t, (emb_f,) = trees.attach(t, [x], [f])
            assert sorted(set(emb_t) | set(emb_f)) == list(range(out.n))
            # grafted minima become children of the attach point
            for m in f.minima:
                assert out.parent[emb_f[m]] == emb_t[x]
            # the forest is a final interval among vertices above x
            above = [v for v in range(out.n) if out.below(emb_t[x], v) and v != emb_t[x]]
            k = len(emb_f)
            assert sorted(above[-k:]) == sorted(emb_f)


def test_oplus_examples():
    assert trees.oplus(2, trees.point_forest(1)) == C3
    assert trees.oplus(1, trees.point_forest(2)) == Y
    assert trees.oplus(1, trees.forest([])) == C1
    with pytest.raises(EmptyLinearOrder):
        trees.oplus(0, trees.point_forest(1))


def test_oplus_agrees_with_attach():
    for a in (1, 2, 3):
        for f in trees.all_forests(3):
            via_attach, _, _ = trees.attach(trees.chain(a), [a - 1], [f])
            assert trees.oplus(a, f) == via_attach


def test_one_plus_drop_root_inverse():
    for n in range(0, 5):
        for f in trees.all_forests(n):
            assert trees.drop_root(trees.one_plus(f)) == f
    for t in trees_up_to(5):
        assert trees.one_plus(trees.drop_root(t)) == t


# --- forests ---------------------------------------------------------------


def test_forest_components_are_intervals():
    for n in range(0, 5):
        for f in trees.all_forests(n):
            for comp in f.components:
                assert list(comp) == list(range(comp[0], comp[-1] + 1))


def test_forest_heights_are_one_based():
    f = trees.forest([None, 0, None])
    assert f.height == (1, 2, 1)


# --- tensor and level cuts --------------------------------------------------


def test_tensor_spec_examples():
    ti = trees.tensor(trees.point_forest(1), 2)
    assert ti.forest.parent == (None, 0)  # a chain of two
    ti = trees.tensor(trees.forest([None, 0]), 2)
    assert ti.forest.n == 6
    for f in trees.all_forests(3):
        ti = trees.tensor(f, 1)
        assert ti.forest.parent == f.parent  # singleton alphabet changes nothing
    with pytest.raises(EmptyAlphabet):
        trees.tensor(trees.point_forest(1), 0)


def test_q_set_spec_examples():
    assert len(trees.q_set(trees.forest([None, 0]), 2).points) == 3
    for k in (1, 2, 3):
        assert len(trees.q_set(trees.point_forest(1), k).points) == 1


def test_tensor_identities_exhaustive():
    for n in range(0, 5):
        for f in trees.all_forests(n):
            for k in (1, 2, 3):
                ti = trees.tensor(f, k)
                q = trees.q_set(f, k)
                assert ti.forest.n == sum(k ** f.height[v] for v in range(f.n))
                assert len(q.points) * k == ti.forest.n
                # blocks partition the tensor order into ascending intervals and
                # the pairing with Q x I is an order isomorphism: cut qq with
                # letter i is the point at position qq*k + i
                for qq, qp in enumerate(q.points):
                    for i in range(k):
                        assert ti.points[qq * k + i] == trees.TensorPoint(qp.s, qp.u + (i,))


def test_tensor_partial_order_matches_definition():
    def below_def(f, p1, p2):
        (s1, t1), (s2, t2) = p1, p2
        h1 = f.height[s1]
        v = s2
        while v is not None and v != s1:
            v = f.parent[v]
        if v != s1:
            return False
        return t1[: h1 - 1] == t2[: h1 - 1] and t1[h1 - 1] <= t2[h1 - 1]

    for n in range(1, 4):
        for f in trees.all_forests(n):
            for k in (2, 3):
                ti = trees.tensor(f, k)
                rooted = trees.one_plus(ti.forest)
                for v in range(ti.forest.n):
                    for w in range(ti.forest.n):
                        expected = below_def(f, ti.points[v], ti.points[w])
                        assert rooted.below(v + 1, w + 1) == expected


# --- enumeration of trees ---------------------------------------------------


def test_enum_trees_counts_match_catalan():
    for n in range(1, 8):
        assert len(trees.all_trees(n)) == catalan(n - 1)


def test_enum_trees_spec_examples():
    assert [t.parent for t in trees.all_trees(1)] == [(None,)]
    three = {t.parent for t in trees.all_trees(3)}
    assert three == {(None, 0, 0), (None, 0, 1)}  # Y and the chain
    assert len(trees.all_trees(4)) == 5


def test_enum_trees_sorted_and_unique():
    for n in range(1, 7):
        parents = [t.parent[1:] for t in trees.all_trees(n)]
        assert parents == sorted(parents)
        assert len(set(parents)) == len(parents)


def test_trees_are_rigid():
    from treeramsey.enumeration import all_embeddings

    for t in trees_up_to(6):
        embs = all_embeddings(t, t)
        assert len(embs) == 1 and embs[0].values == tuple(range(t.n))
