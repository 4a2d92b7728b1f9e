import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from oddcluster import Graph, connected_tree_depth, tree_depth, u_graph
from oddcluster.errors import ResourceLimitError
from oddcluster.treedepth import (
    U_GRAPH_VERTEX_CAP,
    _bit_components,
    _TreeDepthSearch,
    u_child_embedding,
    u_order,
)
from conftest import (
    brute_tree_depth,
    closure,
    complete_dary_tree,
    forest_height,
    random_small_graph,
    tree_children,
)


class TestClosure:
    def test_path_closure_is_complete(self):
        g = closure([-1, 0, 1])
        assert g.m == 3  # K_3

    def test_root_with_two_children(self):
        g = closure([-1, 0, 0])
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
        for h in range(1, 8):
            for d in range(1, 6):
                try:
                    want = closure(complete_dary_tree(h, d))
                except ResourceLimitError:
                    with pytest.raises(ResourceLimitError):
                        u_graph(h, d)
                    continue
                assert u_graph(h, d) == want, (h, d)

    @pytest.mark.parametrize(
        "h, d",
        [
            (13, 2),
            (2, 4096),
            (4097, 1),
            (10**6, 3),
            pytest.param(10**4000, 2, id="1e4000-2"),
            (4096, 1),
        ],
    )
    def test_size_cap_on_huge_arguments(self, h, d):
        # the caps must stop the count before it forms d**h, formats a huge
        # count or lists an edge: U_{4096,1} = K_4096 passes the vertex cap
        # with 8 386 560 edges
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                u_graph(h, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("h, d, n", [(12, 2, 4095), (2, 4095, 4096)])
    def test_largest_trees_under_the_cap(self, h, d, n):
        assert u_graph(h, d).n == n

    def test_root_is_dominant(self):
        g = u_graph(3, 2)
        assert g.adj[0] == frozenset(range(1, 7))


class TestUOrder:
    def test_every_order_within_the_cap(self):
        # the closed form is safe here: h and d are small
        cap = U_GRAPH_VERTEX_CAP
        for d in range(1, cap + 1):
            for h in range(1, cap + 2):
                want = h if d == 1 else (d**h - 1) // (d - 1)
                if want > cap:
                    assert u_order(h, d, cap) > cap, (h, d)
                    break
                assert u_order(h, d, cap) == want, (h, d)

    def test_matches_the_built_pattern(self):
        for d in [*range(1, 9), 63, 64, 4095]:
            for h in range(1, 40):
                n = u_order(h, d, U_GRAPH_VERTEX_CAP)
                if n > U_GRAPH_VERTEX_CAP:
                    with pytest.raises(ResourceLimitError):
                        u_graph(h, d)
                    break
                assert u_graph(h, d).n == n, (h, d)

    @pytest.mark.parametrize(
        "h, d, want",
        [pytest.param(10**4000, 2, 8191, id="1e4000-2"), (4097, 1, 4097), (2, 2**30, 2**30 + 1)],
    )
    def test_stops_at_the_first_level_past_the_limit(self, h, d, want):
        assert u_order(h, d, U_GRAPH_VERTEX_CAP) == want

    def test_limit_boundaries(self):
        assert u_order(5, 3, 0) == 1
        assert u_order(5, 3, 121) == 121


class TestChildEmbedding:
    @pytest.mark.parametrize("h,d", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_embeds_edges(self, h, d):
        big = u_graph(h, d)
        small = u_graph(h - 1, d)
        images = set()
        for j in range(d):
            emb = u_child_embedding(h, d, j)
            assert set(emb) == set(range(small.n))
            assert len(emb) == u_order(h - 1, d, U_GRAPH_VERTEX_CAP)
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
        assert witness == [-1] * 5

    def test_empty_graph(self):
        assert tree_depth(Graph(0)) == (0, [])

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
    assert len(witness) == g.n
    assert forest_height(witness) == value
    cl = closure(witness)
    for e in g.edges:
        assert e in cl.edges, f"edge {e} not in witness closure"


class TestConnectedTreeDepth:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_u_family(self, h, d):
        value, witness = connected_tree_depth(u_graph(h, d))
        assert value == h
        assert witness.count(-1) == 1

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
            assert len(witness) == g.n and witness.count(-1) == 1
            assert forest_height(witness) == ctd
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
    children = tree_children(witness)
    pos = {}

    def rec(v, path):
        pos[v] = path
        for slot, c in enumerate(children[v]):
            assert slot < d
            rec(c, path + (slot,))

    rec(witness.index(-1), ())
    return pos


# The witness builders and the root loop as they were before the search kept
# its own record: forest_witness stitched each component's sub-roots below its
# memoised root, and connected_tree_depth ran 1 + min_r td(G - r) itself.


def reference_forest_witness(search, mask):
    parent, roots = {}, []
    for comp in _bit_components(search.adj, mask):
        search.connected_value(comp)
        root = search.memo[comp][1]
        roots.append(root)
        below, sub_roots = reference_forest_witness(search, comp & ~(1 << root))
        parent.update(below)
        parent.update(dict.fromkeys(sub_roots, root))
    return parent, roots


def reference_tree_depth(g):
    search = _TreeDepthSearch(g)
    full = (1 << g.n) - 1
    parent, roots = reference_forest_witness(search, full)
    return search.forest_value(full), parent, tuple(sorted(roots))


def reference_connected_tree_depth(g):
    search = _TreeDepthSearch(g)
    full = (1 << g.n) - 1
    best = best_r = None
    for r in range(g.n):
        val = 1 + search.forest_value(full & ~(1 << r))
        if best is None or val < best:
            best, best_r = val, r
    parent, roots = reference_forest_witness(search, full & ~(1 << best_r))
    for sub_root in roots:
        parent[sub_root] = best_r
    return best, parent, (best_r,)


def reference_u_child_embedding(h, d, j):
    """The embedding by level offsets: level l of the small tree is a block of level l+1."""
    emb = {}
    sub_start, big_start, size = 0, 1, 1
    for level in range(h - 1):
        for p in range(size):
            emb[sub_start + p] = big_start + j * size + p
        sub_start += size
        big_start += size * d
        size *= d
    return emb


def every_small_graph():
    """Every graph on 1 to 5 labelled vertices, then 500 seeded random ones on 6 to 8."""
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    rng = random.Random(83)
    for _ in range(500):
        yield random_small_graph(rng, 8, n_min=6)


class TestAgainstTheRootLoop:
    def test_values_and_witnesses(self):
        checked = 0
        for g in every_small_graph():
            for search, reference in (
                (tree_depth, reference_tree_depth),
                (connected_tree_depth, reference_connected_tree_depth),
            ):
                value, witness = search(g)
                want_value, want_parent, want_roots = reference(g)
                assert value == want_value
                assert witness == [want_parent.get(v, -1) for v in range(g.n)]
                assert tuple(v for v, p in enumerate(witness) if p == -1) == want_roots
            checked += 1
        assert checked == 1099 + 500

    def test_embeddings(self):
        for h in range(2, 7):
            for d in range(1, 6):
                for j in range(d):
                    got = u_child_embedding(h, d, j)
                    assert list(got.items()) == list(reference_u_child_embedding(h, d, j).items())
