import random

import pytest

from oddcluster import (
    Graph,
    TreeDecomposition,
    disjoint_or_hitting,
    exact_treewidth,
    validate_decomposition,
)
from oddcluster.decomposition import postorder, subtree_bag_unions
from oddcluster.eposa import Dichotomy, Target
from oddcluster.errors import InternalConsistencyError
from oddcluster.generators import complete_graph
from conftest import (
    max_disjoint_triangles,
    random_small_graph,
    renumbered,
    triangles_of,
    trivial_decomposition,
)


def triangle_oracle(g):
    """Exact oracle: lexicographically first triangle inside the region."""

    def oracle(region):
        tris = triangles_of(g, region)
        if tris:
            return Target(support=tris[0])
        return None

    return oracle


def empty_oracle(region):
    return None


def two_triangles():
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


class TestDichotomy:
    def test_empty_family_gives_empty_hitting_set(self):
        g = two_triangles()
        _, dec = exact_treewidth(g)
        for ell in (1, 2, 3):
            out = disjoint_or_hitting(g, dec, empty_oracle, ell)
            assert out.hitting_set == ()

    def test_ell_one_nonempty_family(self):
        g = two_triangles()
        _, dec = exact_treewidth(g)
        out = disjoint_or_hitting(g, dec, triangle_oracle(g), 1)
        assert out.is_disjoint_arm and len(out.disjoint) == 1

    def test_two_disjoint_triangles(self):
        g = two_triangles()
        _, dec = exact_treewidth(g)
        out = disjoint_or_hitting(g, dec, triangle_oracle(g), 2)
        assert out.is_disjoint_arm
        supports = [set(t.support) for t in out.disjoint]
        assert not supports[0] & supports[1]
        assert {frozenset(s) for s in supports} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_k4_forces_hitting_set(self):
        g = complete_graph(4)
        dec = trivial_decomposition(g)
        out = disjoint_or_hitting(g, dec, triangle_oracle(g), 2)
        assert not out.is_disjoint_arm
        assert len(out.hitting_set) <= (2 - 1) * (dec.width + 1)
        assert not triangles_of(g, set(range(4)) - set(out.hitting_set))

    def test_rejects_bad_ell(self):
        g = two_triangles()
        with pytest.raises(ValueError):
            disjoint_or_hitting(g, trivial_decomposition(g), empty_oracle, 0)

    def test_cross_validation_small_instances(self):
        rng = random.Random(99)
        for _ in range(80):
            g = random_small_graph(rng, 10)
            width, dec = exact_treewidth(g)
            packing = max_disjoint_triangles(g)
            for ell in (1, 2, 3):
                out = disjoint_or_hitting(g, dec, triangle_oracle(g), ell)
                if out.is_disjoint_arm:
                    assert len(out.disjoint) == ell
                    used = set()
                    for t in out.disjoint:
                        assert not used & set(t.support)
                        assert tuple(sorted(t.support)) in triangles_of(g)
                        used |= set(t.support)
                    assert packing >= ell, "disjoint arm is unsound"
                else:
                    # packing < ell forces this arm; packing >= ell merely permits it
                    assert len(out.hitting_set) <= (ell - 1) * (width + 1)
                    assert not triangles_of(g, set(range(g.n)) - set(out.hitting_set))

    def test_deterministic(self):
        g = two_triangles()
        _, dec = exact_treewidth(g)
        a = disjoint_or_hitting(g, dec, triangle_oracle(g), 2)
        b = disjoint_or_hitting(g, dec, triangle_oracle(g), 2)
        assert [t.support for t in a.disjoint] == [t.support for t in b.disjoint]


def full_tree_restriction(dec, xs):
    """Restriction as first written: every node kept, bags cut to ``xs``."""
    return TreeDecomposition(dec.parent, [[v for v in bag if v in xs] for bag in dec.bags])


def edge_oracle(g):
    """Exact oracle: lexicographically first edge inside the region."""

    def oracle(region):
        inside = [e for e in sorted(g.edges) if set(e) <= region]
        return Target(support=inside[0]) if inside else None

    return oracle


class TestVirtualTreeRestriction:
    def test_same_dichotomy_as_full_tree_restriction(self):
        from oddcluster import heuristic_decomposition, induced_subgraph
        from oddcluster.decomposition import postorder, restrict_decomposition
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(47)
        for trial in range(60):
            g = random_partial_ktree(rng.randint(8, 40), rng.randint(2, 3), trial, edge_keep=0.9)
            dec = heuristic_decomposition(g)
            xs = sorted(rng.sample(range(g.n), rng.randint(3, g.n)))
            virtual = restrict_decomposition(dec, xs)
            full = full_tree_restriction(dec, set(xs))
            sub, m = induced_subgraph(g, xs)
            ok, why = validate_decomposition(sub, renumbered(virtual, m))
            assert ok, why
            # the non-empty bags come in the same post-order on both trees
            assert [virtual.bags[x] for x in postorder(virtual) if virtual.bags[x]] == [
                full.bags[x] for x in postorder(full) if full.bags[x]
            ]
            for make_oracle in (triangle_oracle, edge_oracle):
                for ell in (1, 2, 3):
                    a = disjoint_or_hitting(g, virtual, make_oracle(g), ell)
                    b = disjoint_or_hitting(g, full, make_oracle(g), ell)
                    assert a == b

    def test_component_oracle_same_dichotomy_as_full_tree_restriction(self):
        # the layer oracle of the colouring, for U_{2,1} and U_{2,2}
        from oddcluster.colouring import _component_oracle
        from oddcluster.decomposition import decompose, restrict_decomposition
        from oddcluster.generators import random_partial_ktree
        from oddcluster.treedepth import u_graph

        rng = random.Random(53)
        compared = disjoint = 0
        for trial in range(40):
            g = random_partial_ktree(rng.randint(8, 24), rng.randint(2, 3), trial, edge_keep=0.8)
            dec = decompose(g)
            xs = sorted(rng.sample(range(g.n), rng.randint(g.n // 2, g.n - 1)))
            restricted = restrict_decomposition(dec, xs)
            full = full_tree_restriction(dec, set(xs))
            for pattern in (u_graph(2, 1), u_graph(2, 2)):
                for ell in (1, 2, 3):
                    a = disjoint_or_hitting(g, restricted, _component_oracle(g, pattern, 24), ell)
                    b = disjoint_or_hitting(g, full, _component_oracle(g, pattern, 24), ell)
                    assert a == b
                    compared += 1
                    disjoint += a.is_disjoint_arm
        assert compared == 240 and 0 < disjoint < compared


class TestHittingSetBound:
    def test_bag_covering_the_vertices_in_play(self):
        # dec decomposes G[{3, 4, 5}] in host ids; vertices 0..2 are not in play
        g = two_triangles()
        dec = TreeDecomposition((-1,), [(3, 4, 5)])
        out = disjoint_or_hitting(g, dec, triangle_oracle(g), 2)
        assert out.hitting_set == (3, 4, 5)

    def test_oversized_hitting_set_raises(self):
        g = complete_graph(3)
        dec = trivial_decomposition(g)
        assert disjoint_or_hitting(g, dec, triangle_oracle(g), 2).hitting_set == (0, 1, 2)
        dec.width = 1  # (ell-1)(w+1) = 2 < 3
        with pytest.raises(InternalConsistencyError, match="hitting set"):
            disjoint_or_hitting(g, dec, triangle_oracle(g), 2)


class TestRunTimeChecks:
    """An oracle that breaks its contract is caught, whichever rule it breaks."""

    @pytest.mark.parametrize(
        "bag, support, message",
        [
            ((0, 1, 2, 3, 4, 5), (), "oracle returned an empty target"),
            ((0, 1, 2), (3, 4, 5), "oracle target leaves the queried region"),
            ((0, 1, 2, 3, 4, 5), (0, 3), "oracle target support is not connected"),
        ],
    )
    def test_bad_target(self, bag, support, message):
        g = two_triangles()
        dec = TreeDecomposition((-1,), [bag])
        with pytest.raises(InternalConsistencyError, match=message):
            disjoint_or_hitting(g, dec, lambda region: Target(support=support), 2)

    def test_target_surviving_outside_the_hitting_set(self):
        g = two_triangles()
        asked = set()

        def forgetful(region):
            # finds the triangle only when asked the same region again
            if region in asked:
                return Target(support=(0, 1, 2))
            asked.add(region)
            return None

        with pytest.raises(InternalConsistencyError, match="target survives outside the hitting set"):
            disjoint_or_hitting(g, trivial_decomposition(g), forgetful, 2)


class TestForestDecomposition:
    """A decomposition whose tree is a forest: the walk covers every root's subtree."""

    def two_roots(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dec = TreeDecomposition((-1, -1), [(0, 1), (2, 3)])
        assert validate_decomposition(g, dec) == (True, None)
        return g, dec

    @pytest.mark.parametrize("ell", [1, 2])
    def test_target_under_second_root(self, ell):
        g, dec = self.two_roots()

        def oracle(region):
            return Target(support=(2, 3)) if {2, 3} <= region else None

        out = disjoint_or_hitting(g, dec, oracle, ell)
        if ell == 1:
            assert [t.support for t in out.disjoint] == [(2, 3)]
        else:
            assert out.hitting_set == (2, 3)

    def test_postorder_visits_roots_in_index_order(self):
        # roots 0 (children 1, 2) and 3 (child 4, grandchild 5)
        dec = TreeDecomposition((-1, 0, 0, -1, 3, 4), [(0,), (2,), (3,), (1,), (4,), (5,)])
        assert postorder(dec) == [1, 2, 0, 5, 4, 3]
        unions = subtree_bag_unions(dec, postorder(dec))
        assert list(unions) == [{2}, {3}, {0, 2, 3}, {5}, {4, 5}, {1, 4, 5}]


def reference_disjoint_or_hitting(dec, oracle, ell):
    """The dichotomy as first written: after each hit the scan starts over from the first node."""
    post = postorder(dec)
    unions = [set(b) for b in dec.bags]  # every subtree's union, stored
    for x in post:
        if dec.parent[x] >= 0:
            unions[dec.parent[x]] |= unions[x]
    deleted, hitting, found = set(), [], []
    while True:
        hit = None
        for x in post:
            region = frozenset(unions[x] - deleted)
            if region:
                target = oracle(region)
                if target is not None:
                    hit = (x, target)
                    break
        if hit is None:
            return Dichotomy(hitting_set=tuple(sorted(hitting)))
        x, target = hit
        found.append(target)
        if len(found) == ell:
            return Dichotomy(disjoint=found)
        hitting.extend(set(dec.bags[x]) - deleted)
        deleted |= unions[x]


class TestSinglePass:
    """One post-order scan gives the restarting scan's result, asking each node at most once."""

    def test_same_result_as_restarting_scan(self):
        from oddcluster import heuristic_decomposition
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(79)
        restarts_saved = 0
        for trial in range(80):
            g = random_partial_ktree(rng.randint(4, 40), rng.randint(1, 3), trial, edge_keep=0.9)
            dec = exact_treewidth(g)[1] if g.n <= 12 else heuristic_decomposition(g)
            for make_oracle in (triangle_oracle, edge_oracle):
                for ell in (1, 2, 3, 5):
                    asked, ref_asked = [], []

                    def counted(log, oracle=make_oracle(g)):
                        return lambda region: log.append(region) or oracle(region)

                    got = disjoint_or_hitting(g, dec, counted(asked), ell)
                    want = reference_disjoint_or_hitting(dec, counted(ref_asked), ell)
                    assert got == want
                    # one query per node at most, plus the final leftover check
                    walk = asked[:-1] if got.hitting_set is not None else asked
                    assert len(walk) <= min(dec.num_nodes, len(ref_asked))
                    restarts_saved += len(ref_asked) - len(walk)
        assert restarts_saved > 0

    def test_no_region_is_asked_twice_in_a_row(self):
        # a node whose region equals the one asked just before is passed: that
        # answer was None, so the result is the restarting scan's all the same
        from oddcluster import heuristic_decomposition
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(80)
        repeats_passed = 0
        for trial in range(60):
            g = random_partial_ktree(rng.randint(4, 40), rng.randint(1, 3), trial, edge_keep=0.9)
            dec = exact_treewidth(g)[1] if g.n <= 12 else heuristic_decomposition(g)
            for make_oracle in (triangle_oracle, edge_oracle):
                for ell in (1, 2, 3):
                    asked, ref_asked = [], []

                    def counted(log, oracle=make_oracle(g)):
                        return lambda region: log.append(region) or oracle(region)

                    got = disjoint_or_hitting(g, dec, counted(asked), ell)
                    assert got == reference_disjoint_or_hitting(dec, counted(ref_asked), ell)
                    walk = asked[:-1] if got.hitting_set is not None else asked
                    assert all(a != b for a, b in zip(walk, walk[1:]))
                    # the restarting scan asks every node's region, repeats included
                    repeats_passed += sum(a == b for a, b in zip(ref_asked, ref_asked[1:]))
        assert repeats_passed > 100


class TestUnionMemory:
    def test_wheel_restriction_in_linear_memory(self):
        # layer 1 of a wheel restricts to a path of 2000 nodes: storing every
        # subtree union would hold 2 M entries (87 MB traced), while streaming
        # them holds one path's worth at a time
        import tracemalloc

        from oddcluster import heuristic_decomposition
        from oddcluster.decomposition import restrict_decomposition

        n = 2001
        g = Graph(n, [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)])
        dec = restrict_decomposition(heuristic_decomposition(g), range(1, n))
        assert dec.num_nodes == n
        tracemalloc.start()
        try:
            out = disjoint_or_hitting(g, dec, empty_oracle, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.hitting_set == ()
        assert peak < 5_000_000, f"peak traced memory {peak} bytes"
