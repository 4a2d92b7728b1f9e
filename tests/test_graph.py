import random
import tracemalloc
from collections import deque

import pytest

from oddcluster import (
    Graph,
    Model,
    assemble_certificate,
    bfs_layers,
    connected_components,
    induced_subgraph,
    u_graph,
)
from oddcluster.colouring import make_colouring, monochromatic_components
from oddcluster import graph as graph_module
from oddcluster.errors import ResourceLimitError
from oddcluster.graph import bfs_tree, components
from oddcluster import oracles
from oddcluster.generators import star_graph
from conftest import (
    _conflict_cycle,
    all_two_colourings_proper,
    check_layered_tree,
    is_bipartite,
    random_small_graph,
    reference_bfs_layers,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_parallel_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.m == 1
        g = Graph(5, [(3, 1), (0, 4), (1, 3), (4, 0), (1, 3), (2, 1)])
        assert g.m == 3
        assert g.edges == frozenset({(1, 3), (0, 4), (1, 2)})

    def test_equality_and_hash_ignore_edge_order_orientation_and_duplicates(self):
        rng = random.Random(20)
        for _ in range(30):
            g = random_small_graph(rng, 8)
            edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in g.edges]
            edges += rng.sample(edges, len(edges) // 2)
            rng.shuffle(edges)
            other = Graph(g.n, edges)
            assert other == g and hash(other) == hash(g)
            assert other.m == g.m == len(g.edges)
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])
        assert Graph(3, [(0, 1)]) != Graph(2, [(0, 1)])

    def test_has_edge_outside_the_vertex_range(self):
        g = cycle(4)
        assert g.has_edge(0, 3) and g.has_edge(3, 0)
        # adj[-1] is adj[3], which holds 0: a negative vertex must not wrap around
        assert not g.has_edge(-1, 0) and not g.has_edge(0, -1)
        assert not g.has_edge(4, 0) and not g.has_edge(0, 4)

    def test_a_graph_holds_only_its_adjacency_sets(self):
        assert Graph.__slots__ == ("n", "adj")
        edges = [(i, (i + 1) % 100_000) for i in range(100_000)]
        tracemalloc.start()
        try:
            g = Graph(100_000, edges)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == 100_000
        assert held < 25_000_000  # 22.4 MB; a frozenset of the edges beside them made it 32.2 MB
        assert peak < 30_000_000  # 23.2 MB; copying every set to a frozenset at once peaked at 44.9 MB

    def test_adjacency_symmetric(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        for a, b in g.edges:
            assert b in g.adj[a] and a in g.adj[b]


class TestSizeCaps:
    """Sizes over the caps raise ResourceLimitError before a graph is built."""

    @pytest.fixture
    def ten_edges(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_EDGES", 10)

    def test_vertex_cap(self):
        for n in (graph_module.MAX_VERTICES + 1, 10**18):
            with pytest.raises(ResourceLimitError, match="vertices"):
                Graph(n)

    def test_lazy_edges_are_read_up_to_the_cap(self, ten_edges):
        pulled = []

        def edges():
            for i in range(1, 1000):
                pulled.append(i)
                yield 0, i

        with pytest.raises(ResourceLimitError, match="edges"):
            Graph(1000, edges())
        assert len(pulled) == 11
        assert Graph(20, [(0, i) for i in range(1, 11)]).m == 10

    def test_generators_and_the_parser(self, ten_edges):
        from oddcluster.generators import complete_graph, cycle_graph, random_partial_ktree, star_graph
        from oddcluster.io import parse_graph

        assert star_graph(11).m == cycle_graph(10).m == complete_graph(5).m == 10
        for make in (
            lambda: star_graph(12),
            lambda: cycle_graph(11),
            lambda: random_partial_ktree(12, 1, 0, edge_keep=0.1),
            lambda: parse_graph("p 30 11\n"),
            lambda: parse_graph(f"p {graph_module.MAX_VERTICES + 1} 0\n"),
        ):
            with pytest.raises(ResourceLimitError):
                make()

    def test_complete_graph_is_refused_before_allocation(self, ten_edges):
        from oddcluster.generators import complete_graph

        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="edges"):
                complete_graph(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # 100 000 adjacency sets would take about 20 MB


class TestBfsLayers:
    def test_single_vertex(self):
        l = bfs_layers(Graph(1), 0)
        assert l.layers == ((0,),)

    def test_path(self):
        l = bfs_layers(path(3), 0)
        assert l.layers == ((0,), (1,), (2,))

    def test_four_cycle_matches_distance_oracle(self):
        g = cycle(4)
        l = bfs_layers(g, 0)
        assert l.layers == ((0,), (1, 3), (2,))
        # all-pairs BFS oracle
        dist = _bfs_distances(g, 0)
        for i, layer in enumerate(l.layers):
            for v in layer:
                assert dist[v] == i

    def test_invalid_root(self):
        with pytest.raises(ValueError):
            bfs_layers(path(3), 5)

    def test_layer_invariants_random(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_small_graph(rng, 9)
            l = bfs_layers(g, 0)
            layer_of = {v: i for i, layer in enumerate(l.layers) for v in layer}
            # every edge inside the component stays within consecutive layers
            for a, b in g.edges:
                if a in layer_of and b in layer_of:
                    assert abs(layer_of[a] - layer_of[b]) <= 1
            # each non-root vertex has a neighbour one layer down
            for i, layer in enumerate(l.layers[1:], start=1):
                for v in layer:
                    assert any(layer_of.get(u) == i - 1 for u in g.adj[v])
            assert set(layer_of) == set(connected_components(g)[0])


def _bfs_distances(g, r):
    dist = {r: 0}
    q = deque([r])
    while q:
        v = q.popleft()
        for u in g.adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def root_branch(g, i, u_i, layering=None):
    """Branch set, tree edges and witness of the U_{2,1} certificate's root at layer i.

    Its one submodel is a non-trivial K_1 on two other vertices of layer i,
    adjacent or not: ``assemble_certificate`` verifies no model.
    """
    layering = layering or bfs_layers(g, 0)
    a, b = [v for v in layering.layers[i] if v != u_i][:2]
    k1 = (Model(u_graph(1, 1), {0: (a, b)}, {0: ((a, b),)}), {a: 0, b: 1})
    cert = assemble_certificate(g, layering, i, u_i, [k1], 2, 1)
    root = cert.model.branch_sets[0]
    return root, cert.model.branch_trees[0], {v: cert.witness[v] for v in root}


class TestLayeredSpanningTree:
    """The certificate's root branch set: layers 0..i-1 plus u_i, one edge down per vertex."""

    def test_path_forced(self):
        # the path 0-1-2, with 1 joined to the edge 3-4 in layer 2
        g = Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4), (3, 4)])
        root, edges, colour = root_branch(g, 2, 2)
        assert root == (0, 1, 2) and edges == ((0, 1), (1, 2))
        assert colour == {0: 1, 1: 0, 2: 1}  # by layer parity, layer i-1 red

    def test_star_forced(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        root, edges, _ = root_branch(g, 1, 2)
        assert root == (0, 2) and edges == ((0, 2),)

    def test_four_cycle(self):
        # the 4-cycle, with 1 joined to the edge 4-5 in layer 2
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (1, 5), (4, 5)])
        l = bfs_layers(g, 0)
        root, edges, _ = root_branch(g, 2, 2, l)
        assert set(root) == {0, 1, 2, 3}
        assert (1, 2) in edges  # 2 hangs from its least neighbour one layer down
        check_layered_tree(g, l, 2, 2, root, edges)

    def test_rejects_layer_zero(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="layer index must be >= 1"):
            assemble_certificate(g, bfs_layers(g, 0), 0, 0, [], 2, 0)

    def test_rejects_wrong_layer(self):
        g = path(3)
        with pytest.raises(ValueError, match="vertex 2 is not in layer 1"):
            assemble_certificate(g, bfs_layers(g, 0), 1, 2, [], 2, 0)

    def test_random_graphs_pass_checker(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            g = random_small_graph(rng, 9, n_min=2)
            l = bfs_layers(g, 0)
            for i in range(1, len(l.layers)):
                if len(l.layers[i]) < 3:  # no room for u_i and a K_1 submodel
                    continue
                u_i = rng.choice(l.layers[i])
                root, edges, colour = root_branch(g, i, u_i, l)
                check_layered_tree(g, l, i, u_i, root, edges)
                assert all(colour[a] != colour[b] for a, b in edges)
                checked += 1
        assert checked > 20


class TestIsBipartite:
    def test_even_cycle(self):
        col, cyc = is_bipartite(cycle(4))
        assert cyc is None
        assert col[0] == col[2] and col[1] == col[3] and col[0] != col[1]

    def test_triangle(self):
        col, cyc = is_bipartite(cycle(3))
        assert col is None
        assert sorted(cyc) == [0, 1, 2]

    def test_empty_graph(self):
        col, cyc = is_bipartite(Graph(5))
        assert cyc is None
        assert set(col) == set(range(5))

    def test_matches_exhaustive_on_five_vertices(self):
        from itertools import combinations

        edges5 = list(combinations(range(5), 2))
        for bits in range(1 << len(edges5)):
            g = Graph(5, [e for i, e in enumerate(edges5) if bits >> i & 1])
            col, cyc = is_bipartite(g)
            assert (col is not None) == all_two_colourings_proper(g)
            if col is not None:
                assert all(col[a] != col[b] for a, b in g.edges)
            else:
                _check_odd_cycle(g, cyc)


def _check_odd_cycle(g, cyc):
    assert len(cyc) % 2 == 1
    assert len(set(cyc)) == len(cyc)
    for i, v in enumerate(cyc):
        assert g.has_edge(v, cyc[(i + 1) % len(cyc)])


class TestInducedSubgraph:
    def test_triangle_edge(self):
        g, m = induced_subgraph(cycle(3), [0, 1])
        assert g.n == 2 and g.m == 1 and m == [0, 1]

    def test_identity(self):
        g = cycle(5)
        sub, m = induced_subgraph(g, range(5))
        assert sub == g and m == list(range(5))

    def test_five_cycle_prefix(self):
        sub, m = induced_subgraph(cycle(5), [0, 1, 2])
        assert sub.edges == frozenset({(0, 1), (1, 2)})

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle(3), [0, 7])

    def test_round_trip_edges(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_small_graph(rng, 8)
            xs = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            sub, m = induced_subgraph(g, xs)
            for a, b in sub.edges:
                assert g.has_edge(m[a], m[b])
            inside = [(a, b) for a, b in g.edges if a in xs and b in xs]
            assert len(inside) == sub.m


class TestConnectedComponents:
    def test_two_edges(self):
        assert connected_components(Graph(4, [(0, 1), (2, 3)])) == [(0, 1), (2, 3)]

    def test_connected(self):
        assert connected_components(cycle(5)) == [(0, 1, 2, 3, 4)]

    def test_isolated_vertex(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])
        assert connected_components(g) == [(0, 1, 2), (3,)]


def union_find_components(vertices, edges):
    """Reference components by union-find: sorted tuples, ordered by minimum element."""
    root = {v: v for v in vertices}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in edges:
        if a in root and b in root:
            root[find(a)] = find(b)
    groups = {}
    for v in sorted(vertices):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(grp) for grp in groups.values())


def sparse_graphs(seed, count):
    """Seeded random graphs, mostly sparse enough to have several components."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 40)
        p = rng.choice((0.02, 0.05, 0.1, 0.3))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        yield rng, Graph(n, edges)


class TestReachAgainstUnionFind:
    def test_connected_components(self):
        for _, g in sparse_graphs(3, 200):
            assert connected_components(g) == union_find_components(range(g.n), g.edges)

    def test_monochromatic_components(self):
        for rng, g in sparse_graphs(5, 200):
            k = rng.randint(1, 4)
            share = rng.choice((1.0, 0.7, 0.3))  # below 1: vertices left out are skipped
            colour = {v: rng.randrange(k) for v in range(g.n) if rng.random() < share}
            mono = [(a, b) for a, b in g.edges if colour.get(a, -1) == colour.get(b, -2)]
            assert monochromatic_components(g, colour) == union_find_components(colour, mono)

    def test_largest_monochromatic_component(self):
        # make_colouring's cluster walk agrees with the largest listed component and with
        # the falsifier's own walk, uncoloured vertices and the empty colouring included
        assert make_colouring(path(3), {}).max_cluster == 0
        for rng, g in sparse_graphs(41, 200):
            k = rng.randint(1, 4)
            share = rng.choice((1.0, 0.7, 0.3, 0.0))
            colour = {v: rng.randrange(k) for v in range(g.n) if rng.random() < share}
            got = make_colouring(g, colour).max_cluster
            assert got == max((len(c) for c in monochromatic_components(g, colour)), default=0)
            assert got == max(map(len, oracles._monochromatic_components(g, colour)), default=0)

    def test_arguments_are_left_unchanged(self):
        # the walks take components out of their own pools, never out of the caller's sets
        for rng, g in sparse_graphs(47, 100):
            xs = {v for v in range(g.n) if rng.random() < 0.6}
            kept = set(xs)
            connected_components(g, xs)
            assert xs == kept
            colour = {v: rng.randrange(3) for v in range(g.n) if rng.random() < 0.8}
            kept = dict(colour)
            make_colouring(g, colour)
            monochromatic_components(g, colour)
            assert colour == kept

    def test_allowed_and_edge_filter(self):
        for rng, g in sparse_graphs(7, 200):
            allowed = {v for v in range(g.n) if rng.random() < 0.6}
            parity = {v: rng.randrange(2) for v in range(g.n)}
            start = rng.randrange(g.n)
            kept = [(a, b) for a, b in g.edges if parity[a] != parity[b]]
            pool = allowed | {start}
            want = next(c for c in union_find_components(pool, kept) if start in c)
            kept_adj = [{u for u in g.adj[v] if parity[v] != parity[u]} for v in range(g.n)]
            assert list(components(kept_adj, [start], pool)) == [set(want)]
            assert pool == allowed - set(want)

    def test_start_outside_the_pool_yields_nothing(self):
        pool = {1, 2}
        assert list(components(path(3).adj, [0], pool)) == []
        assert pool == {1, 2}
        assert list(components(path(3).adj, [0, 2, 1], pool)) == [{1, 2}]
        assert pool == set()

    def test_components_of_a_pool(self):
        check_components_of_a_pool(components)

    def test_a_kernel_that_leaves_reached_vertices_in_the_pool_fails(self):
        def walks_a_copy(adj, starts, pool):  # yields the right sets, leaves the pool whole
            yield from components(adj, starts, set(pool))

        def forgets_between_starts(adj, starts, pool):  # meets a component once per start in it
            for s in starts:
                if s in pool:
                    yield next(components(adj, [s], set(pool)))

        for mutant in (walks_a_copy, forgets_between_starts):
            with pytest.raises(AssertionError):
                check_components_of_a_pool(mutant)


def check_components_of_a_pool(kernel):
    """``kernel`` against union-find on seeded sparse graphs, with shuffled starts that leave the pool."""
    for rng, g in sparse_graphs(43, 200):
        pool = {v for v in range(g.n) if rng.random() < 0.7}
        starts = rng.sample(range(g.n), rng.randint(0, g.n))
        want_pool = set(pool)
        by_vertex = {v: set(c) for c in union_find_components(pool, g.edges) for v in c}
        want = []
        for s in starts:  # first-met order: a component comes out at its first start
            if s in want_pool:
                want.append(by_vertex[s])
                want_pool -= by_vertex[s]
        assert list(kernel(g.adj, starts, pool)) == want
        assert pool == want_pool


class TestWalksOnVertexSets:
    """Walking G[xs] inside the host agrees with walking the induced copy."""

    def test_connected_components_of_a_subset(self):
        for rng, g in sparse_graphs(17, 150):
            xs = rng.sample(range(g.n), rng.randint(0, g.n))
            sub, new_to_old = induced_subgraph(g, xs)
            want = [tuple(new_to_old[v] for v in comp) for comp in connected_components(sub)]
            assert connected_components(g, xs) == want
            assert connected_components(g, frozenset(xs)) == want

    def test_bfs_layers_of_a_subset(self):
        for rng, g in sparse_graphs(19, 150):
            xs = rng.sample(range(g.n), rng.randint(1, g.n))
            sub, new_to_old = induced_subgraph(g, xs)
            root = rng.randrange(sub.n)
            want = bfs_layers(sub, root)
            got = bfs_layers(g, new_to_old[root], xs)
            assert got.root == new_to_old[root]
            assert got.layers == tuple(
                tuple(new_to_old[v] for v in layer) for layer in want.layers
            )

    def test_whole_vertex_set_is_the_graph(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert connected_components(g, range(5)) == connected_components(g)
        assert bfs_layers(g, 1, range(5)) == bfs_layers(g, 1)

    def test_rejects_vertices_outside(self):
        with pytest.raises(ValueError):
            connected_components(cycle(3), [0, 7])
        with pytest.raises(ValueError):
            bfs_layers(cycle(4), 0, [1, 2])


def hub_graphs(seed, count):
    """Seeded graphs with one to three hubs joined to most vertices, and a sparse rest."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 60)
        hubs = rng.sample(range(n), rng.randint(1, min(3, n)))
        edges = [(h, v) for h in hubs for v in range(n) if v != h and rng.random() < 0.9]
        edges += [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.03]
        yield rng, Graph(n, edges)


class TestBfsLayersAgainstTheTreeWalk:
    """The frontier walk gives the layering read off ``bfs_tree``'s parents."""

    def test_same_layers_with_and_without_allowed(self):
        for rng, g in (*sparse_graphs(31, 150), *hub_graphs(37, 150)):
            xs = rng.sample(range(g.n), rng.randint(1, g.n))
            root = rng.choice(xs)
            for allowed in (None, xs, frozenset(xs)):
                assert bfs_layers(g, root, allowed) == reference_bfs_layers(g, root, allowed)

    def test_a_small_region_does_not_pay_the_hubs_degree(self):
        # ``adj[v] & allowed`` per vertex keeps the hub's 200 000 leaves out of
        # every set built; a union of whole neighbourhoods peaks at 8.4 MB here
        g = star_graph(200_001)
        tracemalloc.start()
        try:
            layering = bfs_layers(g, 0, {0, 1, 2, 3})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layering.layers == ((0,), (1, 2, 3))
        assert peak < 1_000_000


def reference_is_bipartite(g):
    """Bipartiteness as first written: colours and conflict checks interleaved in one BFS."""
    colour, parent = {}, {}
    for s in range(g.n):
        if s in colour:
            continue
        colour[s] = 0
        queue = [s]
        for v in queue:
            for u in sorted(g.adj[v]):
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    parent[u] = v
                    queue.append(u)
                elif colour[u] == colour[v]:
                    return None, _conflict_cycle(parent, v, u)
    return colour, None


class TestBfsTree:
    def test_path_from_the_middle(self):
        assert list(bfs_tree(path(5).adj, 2).items()) == [(1, 2), (3, 2), (0, 1), (4, 3)]

    def test_is_a_bfs_tree_of_what_reach_finds(self):  # what ``components`` finds
        for rng, g in sparse_graphs(23, 150):
            xs = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            start = min(xs)
            side = {v: rng.random() < 0.5 for v in range(g.n)}
            two_sided = [{u for u in g.adj[v] if side[v] != side[u]} for v in range(g.n)]
            for adj, allowed in ((g.adj, None), (g.adj, xs), (two_sided, xs)):
                filtered = adj if allowed is None else [nbrs & allowed for nbrs in adj]
                tree = bfs_tree(filtered, start)
                pool = set(range(g.n) if allowed is None else allowed)
                assert {start, *tree} == next(components(adj, [start], pool))
                depth = {start: 0}
                for v, p in tree.items():  # parents come before their children
                    assert v in g.adj[p] and (adj is g.adj or side[p] != side[v])
                    depth[v] = depth[p] + 1
                assert list(depth.values()) == sorted(depth.values())

    def test_is_bipartite_meets_the_interleaved_conflict(self):
        for _, g in sparse_graphs(29, 300):
            assert is_bipartite(g) == reference_is_bipartite(g)
