import random
from itertools import combinations, permutations

import pytest

from oddcluster import Graph, RootedTree, closure, connected_tree_depth, tree_depth, u_graph
from oddcluster.errors import ResourceLimitError
from oddcluster.treedepth import complete_dary_tree, u_child_embedding
from conftest import brute_tree_depth, random_small_graph


def rooted_path(n):
    return RootedTree(parent={i: i - 1 for i in range(1, n)}, roots=(0,))


class TestClosure:
    def test_path_closure_is_complete(self):
        g = closure(rooted_path(3))
        assert g.m == 3  # K_3

    def test_root_with_two_children(self):
        t = RootedTree(parent={1: 0, 2: 0}, roots=(0,))
        g = closure(t)
        assert g.edges == frozenset({(0, 1), (0, 2)})

    def test_complete_binary_height3(self):
        t = complete_dary_tree(3, 2)
        g = closure(t)
        # ancestor pairs: root to 6 descendants + 2 internal nodes x 2 children
        assert g.n == 7 and g.m == 10


class TestUGraph:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_height_one_is_k1(self, d):
        g = u_graph(1, d)
        assert g.n == 1 and g.m == 0

    def test_u23_is_star(self):
        g = u_graph(2, 3)
        assert g.n == 4 and g.m == 3
        assert all(0 in e for e in g.edges)

    def test_u32(self):
        g = u_graph(3, 2)
        assert g.n == 7 and g.m == 10

    def test_vertex_counts(self):
        assert u_graph(3, 3).n == 13
        assert u_graph(4, 1).n == 4

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            u_graph(10, 10)
        with pytest.raises(ResourceLimitError):  # a refused size is not memoized
            u_graph(10, 10)

    def test_memoized_copy_is_the_closure(self):
        assert u_graph(3, 2) is u_graph(3, 2)
        assert u_graph(3, 2) == closure(complete_dary_tree(3, 2))

    @pytest.mark.parametrize(
        "h, d",
        [(13, 2), (2, 4096), (4097, 1), (10**6, 3), pytest.param(10**4000, 2, id="1e4000-2")],
    )
    def test_size_cap_on_huge_arguments(self, h, d):
        # the cap must stop the count before it forms d**h or formats a huge count
        with pytest.raises(ResourceLimitError):
            complete_dary_tree(h, d)

    @pytest.mark.parametrize("h, d, n", [(12, 2, 4095), (2, 4095, 4096), (4096, 1, 4096)])
    def test_largest_trees_under_the_cap(self, h, d, n):
        assert len(complete_dary_tree(h, d).vertices()) == n

    def test_root_is_dominant(self):
        g = u_graph(3, 2)
        assert g.adj[0] == frozenset(range(1, 7))


class TestChildEmbedding:
    @pytest.mark.parametrize("h,d", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_embeds_edges(self, h, d):
        big = u_graph(h, d)
        small = u_graph(h - 1, d)
        images = set()
        for j in range(d):
            emb = u_child_embedding(h, d, j)
            assert set(emb) == set(range(small.n))
            for a, b in small.edges:
                assert big.has_edge(emb[a], emb[b])
            img = set(emb.values())
            assert 0 not in img and not img & images
            images |= img
        assert images == set(range(1, big.n))


class TestTreeDepth:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_complete_graph(self, n):
        g = Graph(n, combinations(range(n), 2))
        value, witness = tree_depth(g)
        assert value == n
        _check_td_witness(g, witness, value)

    def test_p4(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        value, witness = tree_depth(g)
        assert value == 3
        _check_td_witness(g, witness, value)

    def test_edgeless(self):
        value, witness = tree_depth(Graph(5))
        assert value == 1
        assert witness.vertex_height() == 1

    def test_empty_graph(self):
        assert tree_depth(Graph(0))[0] == 0

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            tree_depth(Graph(25), cap=20)

    def test_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(80):
            g = random_small_graph(rng, 7)
            adj = {v: set(g.adj[v]) for v in range(g.n)}
            expected = brute_tree_depth(adj, frozenset(range(g.n)))
            value, witness = tree_depth(g)
            assert value == expected
            _check_td_witness(g, witness, value)


def _check_td_witness(g, witness, value):
    assert witness.vertex_height() == value
    assert witness.vertices() == set(range(g.n))
    cl = closure(witness)
    for e in g.edges:
        assert e in cl.edges, f"edge {e} not in witness closure"


class TestConnectedTreeDepth:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_u_family(self, h, d):
        value, witness = connected_tree_depth(u_graph(h, d))
        assert value == h
        assert len(witness.roots) == 1

    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        value, witness = connected_tree_depth(g)
        assert value == 3
        assert tree_depth(g)[0] == 2

    def test_single_vertex(self):
        assert connected_tree_depth(Graph(1))[0] == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            connected_tree_depth(Graph(0))

    def test_footnote_rule(self):
        # ctd = td unless exactly the td value is attained by two components
        rng = random.Random(9)
        for _ in range(80):
            g = random_small_graph(rng, 7)
            td, _ = tree_depth(g)
            ctd, witness = connected_tree_depth(g)
            assert ctd in (td, td + 1)
            per_comp = _component_tds(g)
            if sum(1 for t in per_comp if t == td) >= 2:
                assert ctd == td + 1
            else:
                assert ctd == td
            assert witness.vertices() == set(range(g.n))
            assert witness.vertex_height() == ctd
            cl = closure(witness)
            assert g.edges <= cl.edges


def _component_tds(g):
    from oddcluster import connected_components, induced_subgraph

    out = []
    for comp in connected_components(g):
        sub, _ = induced_subgraph(g, comp)
        out.append(tree_depth(sub)[0])
    return out


class TestUniversalEmbedding:
    def test_small_patterns_embed_into_u(self):
        # any H embeds in U_{ctd(H), |V(H)|}: place the ctd witness tree
        # into the complete d-ary tree and compare ancestor relations
        rng = random.Random(5)
        for _ in range(40):
            g = random_small_graph(rng, 6)
            if g.n == 0:
                continue
            ctd, witness = connected_tree_depth(g)
            pos = _embed_witness(witness, g.n)
            for a, b in g.edges:
                pa, pb = pos[a], pos[b]
                assert pa[: len(pb)] == pb or pb[: len(pa)] == pa, (
                    "pattern edge endpoints are not ancestor-related in the d-ary tree"
                )


def _embed_witness(witness, d):
    """Map each witness vertex to its path of child slots in the d-ary tree."""
    children = witness.children()
    pos = {}

    def rec(v, path):
        pos[v] = path
        for slot, c in enumerate(children[v]):
            assert slot < d
            rec(c, path + (slot,))

    rec(witness.roots[0], ())
    return pos
