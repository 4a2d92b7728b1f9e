import gc
import random
import sys

import pytest

from oddcluster import (
    Budgets,
    Graph,
    OddModelCertificate,
    assemble_certificate,
    bfs_layers,
    clustering_budget,
    colour_bounded_tw,
    colour_budget,
    colour_pipeline,
    exact_treewidth,
    find_odd_model,
    heuristic_decomposition,
    induced_subgraph,
    is_nontrivial,
    u_graph,
    verify_colouring,
    verify_model,
    verify_odd_witness,
)
from oddcluster import colouring
from oddcluster.colouring import _assert_scope_locality, _component_oracle, monochromatic_components
from oddcluster.decomposition import TreeDecomposition, decompose
from oddcluster.eposa import Dichotomy
from oddcluster.errors import InternalConsistencyError, ResourceLimitError
from oddcluster.generators import (
    complete_graph,
    cycle_graph,
    random_partial_ktree,
    star_graph,
)
from oddcluster.graph import reach
from conftest import check_layered_tree, empty_graph, path_graph, random_tree, trivial_decomposition


def check_certificate(g, cert):
    ok, why = verify_model(g, cert.model)
    assert ok, why
    ok, why = verify_odd_witness(g, cert.model, cert.witness)
    assert ok, why
    assert is_nontrivial(cert.model)
    assert cert.model.pattern == u_graph(cert.h, cert.d)


class TestBudgets:
    def test_small_values(self):
        assert colour_budget(1) == 1
        assert colour_budget(2) == 4
        assert colour_budget(3) == 10

    def test_recurrence(self):
        for h in range(2, 12):
            assert colour_budget(h) == 2 * (colour_budget(h - 1) + 1)

    def test_clustering_identity(self):
        assert clustering_budget(2, 1) == 3
        for d in range(1, 6):
            for w in range(0, 6):
                assert clustering_budget(d, w) == (d - 1) * (w + 1) + 1

    def test_budgets_dataclass(self):
        b = Budgets(h=3, d=2, w=2)
        assert b.colours == 10 and b.clustering == 4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            colour_budget(0)
        with pytest.raises(ValueError):
            clustering_budget(0, 1)


class TestScopeLocality:
    def test_monochromatic_edge_across_scopes_raises(self):
        g = Graph(3, [(0, 1), (1, 2)])
        _assert_scope_locality(g, {0: 0, 1: 0, 2: 1}, {0: "a", 1: "a", 2: "b"})
        with pytest.raises(InternalConsistencyError, match="joins scopes"):
            _assert_scope_locality(g, {0: 0, 1: 1, 2: 1}, {0: "a", 1: "a", 2: "b"})

    def test_same_verdict_as_component_scopes(self):
        # the edge scan must raise exactly when a monochromatic component spans two scopes
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 12)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.25]
            g = Graph(n, edges)
            raw = {v: rng.randrange(3) for v in range(n)}
            scope = {v: rng.choice("ab") for v in range(n)}
            spans = any(
                len({scope[v] for v in comp}) > 1 for comp in monochromatic_components(g, raw)
            )
            try:
                _assert_scope_locality(g, raw, scope)
                raised = False
            except InternalConsistencyError:
                raised = True
            assert raised == spans


class TestBaseCase:
    def test_edgeless(self):
        g = empty_graph(7)
        out = colour_bounded_tw(g, 1, 1, trivial_decomposition(g))
        assert out.num_colours == 1 and out.max_cluster == 1

    def test_edge_gives_certificate(self):
        g = path_graph(2)
        out = colour_bounded_tw(g, 1, 3, trivial_decomposition(g))
        assert isinstance(out, OddModelCertificate)
        assert out.h == 1
        check_certificate(g, out)


class TestColourBoundedTw:
    def test_star_h2(self):
        g = star_graph(4)
        w, dec = exact_treewidth(g)
        assert find_odd_model(g, u_graph(1, 1), require_nontrivial=True) is None or True
        out = colour_bounded_tw(g, 2, 1, dec)
        ok, why = verify_colouring(g, out, colour_budget(2), clustering_budget(1, w))
        assert ok, why

    def test_large_even_cycle(self):
        g = cycle_graph(20)
        dec = decompose(g)
        out = colour_bounded_tw(g, 2, 2, dec)
        ok, why = verify_colouring(g, out, 4, clustering_budget(2, dec.width))
        assert ok, why

    def test_certificate_arm_h2_d1(self):
        # hub 0 over {1,2,3} with the edge 2-3 inside layer 1
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        out = colour_bounded_tw(g, 2, 1, decompose(g))
        assert isinstance(out, OddModelCertificate)
        assert (out.h, out.d) == (2, 1)
        check_certificate(g, out)

    def test_certificate_arm_h2_d2(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 3), (4, 5)])
        out = colour_bounded_tw(g, 2, 2, decompose(g))
        assert isinstance(out, OddModelCertificate)
        check_certificate(g, out)

    def test_disconnected_input(self):
        g = Graph(8, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 7)])
        out = colour_bounded_tw(g, 2, 1, decompose(g))
        ok, why = verify_colouring(g, out, colour_budget(2), clustering_budget(1, 1))
        assert ok, why

    def test_dichotomy_totality_and_soundness_fuzz(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(2, 30)
            k = rng.randint(1, 3)
            g = random_partial_ktree(n, k, rng.randrange(10**6), edge_keep=rng.uniform(0.4, 1.0))
            dec = decompose(g)
            h = rng.randint(1, 3)
            d = rng.randint(1, 3)
            out = colour_bounded_tw(g, h, d, dec)
            if isinstance(out, OddModelCertificate):
                check_certificate(g, out)
            else:
                ok, why = verify_colouring(
                    g, out, colour_budget(h), clustering_budget(d, max(dec.width, 0))
                )
                assert ok, why

    def test_layer_locality_of_clusters(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_partial_ktree(25, 2, rng.randrange(10**6))
            out = colour_bounded_tw(g, 3, 2, decompose(g))
            if isinstance(out, OddModelCertificate):
                continue
            for comp in monochromatic_components(g, out.colour):
                scopes = {out.scope[v] for v in comp}
                assert len(scopes) == 1

    def test_deterministic(self):
        g = random_partial_ktree(18, 2, 123)
        dec = decompose(g)
        a = colour_bounded_tw(g, 2, 2, dec)
        b = colour_bounded_tw(g, 2, 2, dec)
        assert type(a) is type(b)
        if not isinstance(a, OddModelCertificate):
            assert a.colour == b.colour


class TestAssembleCertificate:
    def _fixture(self):
        # hub 1 hangs off 0; layer 2 = {2,3,4} with the edge 3-4
        g = Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4), (3, 4)])
        layering = bfs_layers(g, 0)
        assert layering.layers == ((0,), (1,), (2, 3, 4))
        found = find_odd_model(g, u_graph(1, 1), region=[3, 4], require_nontrivial=True)
        assert found is not None
        return g, layering, found

    def test_d1_h2(self):
        g, layering, found = self._fixture()
        cert = assemble_certificate(g, layering, 2, 2, [found], 2, 1)
        check_certificate(g, cert)
        assert cert.model.branch_sets[0] == (0, 1, 2)
        check_layered_tree(g, layering, 2, 2, cert.model.branch_sets[0], cert.model.branch_trees[0])

    def test_parity_colouring_proper(self):
        g, layering, found = self._fixture()
        cert = assemble_certificate(g, layering, 2, 2, [found], 2, 1)
        for a, b in cert.model.branch_trees[0]:
            assert cert.witness[a] != cert.witness[b]
        assert cert.witness[1] == 0  # layer i-1 is red

    def test_monochromatic_join_to_layer_below(self):
        g, layering, found = self._fixture()
        cert = assemble_certificate(g, layering, 2, 2, [found], 2, 1)
        root, child_set = cert.model.branch_sets[0], cert.model.branch_sets[1]
        reds = [v for v in child_set if cert.witness[v] == 0]
        assert any(cert.witness[u] == 0 for v in reds for u in g.adj[v] if u in root)

    def test_rejects_wrong_count(self):
        g, layering, found = self._fixture()
        with pytest.raises(ValueError):
            assemble_certificate(g, layering, 2, 2, [found, found], 2, 1)

    def test_builds_without_verifying(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("assemble_certificate ran a verifier")

        for name in ("verify_model", "verify_odd_witness"):
            monkeypatch.setattr(colouring, name, refuse)
        g, layering, found = self._fixture()
        cert = assemble_certificate(g, layering, 2, 2, [found], 2, 1)
        monkeypatch.undo()
        check_certificate(g, cert)
        assert colouring.verify_certificate(g, cert) == (True, None)

    def test_rejects_trivial_submodel(self):
        g, layering, _ = self._fixture()
        trivial = find_odd_model(g, u_graph(1, 1), region=[3, 4], require_nontrivial=False)
        with pytest.raises(ValueError):
            assemble_certificate(g, layering, 2, 2, [trivial], 2, 1)


class TestPipeline:
    def test_bipartite_forest_k3(self):
        g = Graph(9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8)])
        out = colour_pipeline(g, complete_graph(3))
        assert not isinstance(out, OddModelCertificate)
        assert out.num_colours <= colour_budget(3)

    def test_c6_k2_all_red(self):
        g = cycle_graph(6)
        out = colour_pipeline(g, Graph(2, [(0, 1)]), partition=["r"] * 6)
        assert out.num_colours <= colour_budget(2)  # blue side is empty

    def test_total_bound_arithmetic(self):
        from oddcluster import connected_tree_depth

        assert connected_tree_depth(Graph(2, [(0, 1)]))[0] == 2
        assert 3 * 2**2 - 4 == 8 == 2 * colour_budget(2)

    def test_mixed_partition(self):
        g = cycle_graph(8)
        partition = ["r", "r", "b", "b", "r", "r", "b", "b"]
        out = colour_pipeline(g, complete_graph(3), partition=partition)
        assert not isinstance(out, OddModelCertificate)
        assert out.num_colours <= 2 * colour_budget(3)
        ok, why = verify_colouring(g, out, 2 * colour_budget(3), clustering_budget(3, 2))
        assert ok, why

    def test_certificate_bubbles_up(self):
        # odd cycle against K_1: every edge is a non-trivial odd model
        g = cycle_graph(5)
        out = colour_pipeline(g, Graph(1))
        assert isinstance(out, OddModelCertificate)
        check_certificate(g, out)

    def test_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            colour_pipeline(cycle_graph(4), Graph(2, [(0, 1)]), partition=["r", "b"])


def ladder(length):
    """Triangulated 2 x ``length`` strip listed in path order (treewidth 2)."""
    edges = []
    for i in range(length):
        a, b = 2 * i, 2 * i + 1
        edges.append((a, b))
        if i + 1 < length:
            edges += [(a, a + 2), (b, b + 2), (a, b + 2)]
    return Graph(2 * length, edges)


class TestLongInputs:
    """Path-ordered inputs give min-fill decompositions deeper than the recursion limit."""

    def test_path_ordered_cycle(self):
        g = cycle_graph(max(1500, 2 * sys.getrecursionlimit()))
        dec = heuristic_decomposition(g)
        out = colour_bounded_tw(g, 2, 2, dec)
        assert not isinstance(out, OddModelCertificate)
        ok, why = verify_colouring(g, out, colour_budget(2), clustering_budget(2, dec.width))
        assert ok, why

    def test_path_ordered_strip(self):
        g = ladder(max(600, sys.getrecursionlimit()))
        dec = heuristic_decomposition(g)
        assert dec.width == 2
        out = colour_bounded_tw(g, 3, 2, dec)
        assert not isinstance(out, OddModelCertificate)
        ok, why = verify_colouring(g, out, colour_budget(3), clustering_budget(2, dec.width))
        assert ok, why


class TestRegionsWithoutRoomForAModel:
    """Layers far over the search cap colour when they cannot hold a non-trivial model."""

    @pytest.mark.parametrize(
        "g,h,d",
        [(star_graph(200), 2, 2), (random_tree(3000, 1), 3, 3)],
        ids=["star-200-h2d2", "random-tree-3000-h3d3"],
    )
    def test_colours_within_budget(self, g, h, d):
        dec = decompose(g)
        out = colour_bounded_tw(g, h, d, dec)
        assert not isinstance(out, OddModelCertificate)
        ok, why = verify_colouring(g, out, colour_budget(h), clustering_budget(d, dec.width))
        assert ok, why


class TestLayerSizeSkip:
    """A layer region below 2|V(U_{h-1,d})| vertices skips the dichotomy; one at that size does not."""

    def test_region_of_exactly_twice_the_pattern_certifies(self):
        # hub 0 over 1..5 with the path 2-3-4-5: layer 1's region {2,3,4,5}
        # has 2|V(U_{2,1})| = 4 vertices and holds the odd K2-model (2,3)-(4,5)
        g = Graph(6, [(0, v) for v in range(1, 6)] + [(2, 3), (3, 4), (4, 5)])
        out = colour_bounded_tw(g, 3, 1, decompose(g))
        assert isinstance(out, OddModelCertificate)
        check_certificate(g, out)
        assert out.model.branch_sets == {0: (0, 1), 1: (2, 3), 2: (4, 5)}

    def test_k4_certifies(self):
        # layer 1's region {2,3} has 2|V(U_{1,1})| = 2 vertices and holds an edge
        g = complete_graph(4)
        out = colour_bounded_tw(g, 2, 1, decompose(g))
        assert isinstance(out, OddModelCertificate)
        assert (out.h, out.d) == (2, 1)
        check_certificate(g, out)

    def test_small_regions_neither_restrict_nor_run_the_dichotomy(self, monkeypatch):
        # every layer of C_200 from vertex 0 leaves a region of at most one vertex
        def refuse(*args, **kwargs):
            raise AssertionError("a region too small for a non-trivial model reached the dichotomy")

        monkeypatch.setattr(colouring, "restrict_decomposition", refuse)
        monkeypatch.setattr(colouring, "disjoint_or_hitting", refuse)
        g = cycle_graph(200)
        dec = decompose(g)
        out = colour_bounded_tw(g, 2, 2, dec)
        assert not isinstance(out, OddModelCertificate)
        ok, why = verify_colouring(g, out, colour_budget(2), clustering_budget(2, dec.width))
        assert ok, why


class TestComponentOracle:
    """The layer oracle searches component by component, with the cap per component."""

    @staticmethod
    def assert_same_as_whole_region(oracle, g, pattern, region):
        want = find_odd_model(g, pattern, sorted(region), require_nontrivial=True)
        got = oracle(region)
        assert (got is None) == (want is None), sorted(region)
        if want is not None:
            assert got.payload == want
            assert list(got.payload[1]) == list(want[1])
            assert got.support == tuple(want[0].covered_vertices())

    def test_random_regions_agree_with_whole_region_search(self):
        # one oracle per graph and pattern, so later regions hit components
        # that earlier ones memoised; regions of up to 16 vertices keep the
        # whole-region reference fast
        rng = random.Random(913)
        found = several = 0
        for _ in range(16):
            n = rng.randint(20, 40)
            k, seed, keep = rng.choice((2, 3)), rng.randrange(2**31), rng.uniform(0.5, 0.9)
            g = random_partial_ktree(n, k, seed, edge_keep=keep)
            for pattern in (u_graph(1, 2), u_graph(2, 2), u_graph(2, 3)):
                oracle = _component_oracle(g, pattern, 24)
                for _ in range(6):
                    region = frozenset(rng.sample(range(n), rng.randint(6, 16)))
                    self.assert_same_as_whole_region(oracle, g, pattern, region)
                    found += oracle(region) is not None
                    several += _components_with_a_model(oracle, g, region) >= 2
        assert found > 100 and several > 20

    def test_colouring_regions_agree_with_whole_region_search(self, monkeypatch):
        # the regions the dichotomy asks about while colouring small-search-like
        # inputs; a layer region too small to hold a non-trivial model asks
        # nothing, so the regions large enough to hold one get their own floor
        asked = []

        def recording(g, pattern, cap):
            asked.append((g, pattern, []))
            oracle = _component_oracle(g, pattern, cap)

            def record(region):
                asked[-1][2].append(region)
                return oracle(region)

            return record

        monkeypatch.setattr(colouring, "_component_oracle", recording)
        rng = random.Random(14)
        for _ in range(24):
            n = rng.randint(16, 30)
            k, seed, keep = rng.choice((3, 4)), rng.randrange(2**31), rng.uniform(0.8, 0.9)
            g = random_partial_ktree(n, k, seed, edge_keep=keep)
            colour_bounded_tw(g, 3, rng.choice((2, 3)), decompose(g))
        checked = large = 0
        for g, pattern, regions in asked:
            oracle = _component_oracle(g, pattern, 24)
            for region in regions:
                if len(region) <= 24:
                    self.assert_same_as_whole_region(oracle, g, pattern, region)
                    checked += 1
                    large += len(region) >= 2 * pattern.n
        assert checked > 300 and large > 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_2trees_with_layers_over_the_cap(self, seed):
        # whole-region search gave up on layer regions of 26, 36 and 27 vertices
        g = random_partial_ktree(100, 2, seed)
        dec = decompose(g)
        out = colour_bounded_tw(g, 3, 2, dec)
        if isinstance(out, OddModelCertificate):
            check_certificate(g, out)
        else:
            ok, why = verify_colouring(g, out, colour_budget(3), clustering_budget(2, dec.width))
            assert ok, why

    def test_the_least_root_vertex_wins_over_the_least_component(self):
        # the component of vertex 0 holds a model of U_{2,2} whose root branch
        # set starts at 21; the other one, rooted at 3, comes first in search order
        g = Graph(25, [(0, 20), (20, 21), (21, 22), (22, 23), (23, 24)] + [(v, v + 1) for v in range(1, 6)])
        pattern = u_graph(2, 2)
        region = frozenset([0, *range(1, 7), *range(20, 25)])
        target = _component_oracle(g, pattern, 24)(region)
        assert target.payload == find_odd_model(g, pattern, sorted(region), require_nontrivial=True)
        assert target.payload[0].branch_sets[0] == (3, 4)

    def test_the_cap_applies_per_component(self):
        # two disjoint 13-vertex paths: 26 region vertices, 13 per component
        g = Graph(26, [(v, v + 1) for v in range(25) if v != 12])
        pattern = u_graph(2, 2)
        with pytest.raises(ResourceLimitError):
            find_odd_model(g, pattern, range(26), require_nontrivial=True, cap=24)
        target = _component_oracle(g, pattern, 24)(frozenset(range(26)))
        assert target.payload == find_odd_model(g, pattern, range(26), require_nontrivial=True, cap=26)
        with pytest.raises(ResourceLimitError):
            _component_oracle(g, pattern, 12)(frozenset(range(26)))

    def test_memory_follows_the_components_not_the_walk(self):
        # hub 0 joined to leaves 1..L, connector L+i joined to leaves i and
        # i+1: layer 1's decomposition is a path whose every node asks a new,
        # larger region of singleton components; a memo of the regions held
        # all of them (6.0 MB traced at L = 500, 22.9 MB at L = 1000)
        import tracemalloc

        n_leaves = 500
        g = Graph(
            2 * n_leaves,
            [(0, i) for i in range(1, n_leaves + 1)]
            + [e for i in range(1, n_leaves) for e in ((i, n_leaves + i), (i + 1, n_leaves + i))],
        )
        dec = decompose(g)
        tracemalloc.start()
        try:
            out = colour_bounded_tw(g, 2, 2, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not isinstance(out, OddModelCertificate)
        assert peak < 2_000_000, f"peak traced memory {peak} bytes"


def _components_with_a_model(oracle, g, region):
    count = 0
    seen = set()
    for v in sorted(region):
        if v not in seen:
            comp = frozenset(reach(g.adj, v, region))
            seen |= comp
            count += oracle(comp) is not None
    return count


class TestPostconditions:
    """The budgets are checked on every colouring; each check can trip."""

    def test_colour_budget(self, monkeypatch):
        import oddcluster.colouring as colouring

        real = colouring.colour_budget
        monkeypatch.setattr(colouring, "colour_budget", lambda h: 1 if h == 2 else real(h))
        g = cycle_graph(8)
        with pytest.raises(InternalConsistencyError, match="colours exceed"):
            colour_bounded_tw(g, 2, 2, decompose(g))

    def test_clustering_budget(self, monkeypatch):
        import oddcluster.colouring as colouring

        monkeypatch.setattr(colouring, "clustering_budget", lambda d, w: 0)
        g = cycle_graph(8)
        with pytest.raises(InternalConsistencyError, match="cluster of"):
            colour_bounded_tw(g, 2, 2, decompose(g))

    def test_model_in_a_region_certified_clean(self, monkeypatch):
        # a dichotomy that hits nothing leaves layer 1 of the wheel, a path
        # on the rim, to the h-1 recursion, which finds an edge in it
        monkeypatch.setattr(colouring, "disjoint_or_hitting", lambda *args: Dichotomy(hitting_set=()))
        g = Graph(8, [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)])
        with pytest.raises(InternalConsistencyError, match="certified clean"):
            colour_bounded_tw(g, 2, 2, decompose(g))

    def test_k1_certificate(self, monkeypatch):
        # the h = 1 certificate is checked like an assembled one
        real = colouring._k1_certificate

        def monochromatic(d, edge):
            cert = real(d, edge)
            cert.witness[edge[1]] = cert.witness[edge[0]]
            return cert

        monkeypatch.setattr(colouring, "_k1_certificate", monochromatic)
        g = path_graph(3)
        with pytest.raises(InternalConsistencyError, match="monochromatic edge"):
            colour_bounded_tw(g, 1, 1, decompose(g))

    def test_assembled_certificate(self, monkeypatch):
        # a vertex dropped from the largest branch set leaves its branch tree
        # spanning a vertex outside it
        real = colouring.assemble_certificate

        def drop_a_vertex(*args):
            cert = real(*args)
            sets = cert.model.branch_sets
            x = max(sets, key=lambda x: len(sets[x]))
            sets[x] = sets[x][:-1]
            return cert

        monkeypatch.setattr(colouring, "assemble_certificate", drop_a_vertex)
        g = Graph(8, [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)])
        with pytest.raises(InternalConsistencyError, match="certificate invalid"):
            colour_bounded_tw(g, 2, 2, decompose(g))


class TestHostIdDecomposition:
    """A host-id decomposition of G[xs] colours xs as the relabelled copy G[xs] does."""

    def test_same_result_as_the_induced_copy(self):
        rng = random.Random(59)
        arms = set()
        for trial in range(80):
            g = random_partial_ktree(rng.randint(4, 30), rng.randint(1, 3), trial)
            xs = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            h, d = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
            sub, m = induced_subgraph(g, xs)
            sub_dec = decompose(sub)
            dec = TreeDecomposition(sub_dec.parent, [[m[v] for v in bag] for bag in sub_dec.bags])
            want = colour_bounded_tw(sub, h, d, sub_dec)
            got = colour_bounded_tw(g, h, d, dec)
            assert type(got) is type(want)
            if isinstance(want, OddModelCertificate):
                arms.add("certificate")
                check_certificate(g, got)
                assert got.model.branch_sets == {
                    x: tuple(m[v] for v in bs) for x, bs in want.model.branch_sets.items()
                }
                assert got.model.branch_trees == {
                    x: tuple((m[a], m[b]) for a, b in te)
                    for x, te in want.model.branch_trees.items()
                }
                assert got.witness == {m[v]: c for v, c in want.witness.items()}
            else:
                arms.add("colouring")
                assert sorted(got.colour) == xs
                assert got.colour == {m[v]: c for v, c in want.colour.items()}
                assert got.scope == {m[v]: s for v, s in want.scope.items()}
                assert (got.num_colours, got.max_cluster) == (want.num_colours, want.max_cluster)
        assert arms == {"certificate", "colouring"}


class TestNoCyclicGarbage:
    """The searches free what they build as they return, without the cycle collector."""

    @pytest.fixture
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_find_odd_model(self, collector_off):
        g = random_partial_ktree(16, 3, 1)
        assert find_odd_model(g, u_graph(2, 2), require_nontrivial=True) is not None
        assert gc.collect() == 0

    def test_colour_bounded_tw(self, collector_off):
        g = random_partial_ktree(16, 3, 1)
        assert not isinstance(colour_bounded_tw(g, 3, 2, decompose(g)), OddModelCertificate)
        assert gc.collect() == 0


def reference_colour_bounded_tw(g, h, d, dec, cap=colouring.FIND_MODEL_CAP):
    """The recursion in which each level returns a (raw, scope) pair or a certificate.

    Each level copies its sub-results into new maps and re-offsets the
    colours of every layer, so this is the straightforward form the
    run-owned maps of ``colour_bounded_tw`` must agree with.
    """
    out = _reference_rec(g, h, d, dec, cap, frozenset().union(*dec.bags), "")
    if isinstance(out, OddModelCertificate):
        return out
    raw, scope = out
    _assert_scope_locality(g, raw, scope)
    result = colouring.make_colouring(g, raw, scope)
    budgets = Budgets(h=h, d=d, w=max(dec.width, 0))
    if result.num_colours > budgets.colours or result.max_cluster > budgets.clustering:
        raise InternalConsistencyError("over budget")
    return result


def _reference_rec(g, h, d, dec, cap, xs, prefix):
    if h == 1:
        edge = min(((a, b) for a in xs for b in g.adj[a] & xs if a < b), default=None)
        if edge is not None:
            return colouring._k1_certificate(d, edge)
        tag = f"{prefix}/base" if prefix else "base"
        return dict.fromkeys(sorted(xs), 0), dict.fromkeys(sorted(xs), tag)
    raw = {}
    scope = {}
    for ci, comp in enumerate(colouring.connected_components(g, xs)):
        out = _reference_component(g, h, d, dec, cap, comp, f"{prefix}/c{ci}")
        if isinstance(out, OddModelCertificate):
            return out
        raw.update(out[0])
        scope.update(out[1])
    return raw, scope


def _reference_component(g, h, d, dec, cap, comp, prefix):
    layering = colouring.bfs_layers(g, comp[0], comp)
    sub_size = colour_budget(h - 1)
    raw = {comp[0]: 0}
    scope = {comp[0]: f"{prefix}/L0"}
    pattern = u_graph(h - 1, d)
    for i in range(1, len(layering.layers)):
        layer = layering.layers[i]
        u_i = layer[0]
        offset = 0 if i % 2 == 0 else sub_size + 1
        hit_colour = offset + sub_size
        region = [v for v in layer if v != u_i]
        hit_scope = f"{prefix}/L{i}/hit"
        if not region:
            raw[u_i] = hit_colour
            scope[u_i] = hit_scope
            continue
        dec_i = colouring.restrict_decomposition(dec, region)
        oracle = _component_oracle(g, pattern, cap)
        dich = colouring.disjoint_or_hitting(g, dec_i, oracle, d)
        if dich.is_disjoint_arm:
            submodels = [t.payload for t in dich.disjoint]
            return assemble_certificate(g, layering, i, u_i, submodels, h, d)
        hit = list(dich.hitting_set) + [u_i]
        for v in hit:
            raw[v] = hit_colour
            scope[v] = hit_scope
        rest = frozenset(region) - set(hit)
        if not rest:
            continue
        sub = _reference_rec(g, h - 1, d, dec, cap, rest, f"{prefix}/L{i}")
        if isinstance(sub, OddModelCertificate):
            raise InternalConsistencyError("model in a region certified clean")
        sub_raw, sub_scope = sub
        for v, col in sub_raw.items():
            raw[v] = offset + col
        scope.update(sub_scope)
    return raw, scope


def _outcome(run, g, h, d, dec, cap):
    try:
        return run(g, h, d, dec, cap)
    except (InternalConsistencyError, ResourceLimitError) as exc:
        return type(exc)


class TestAgainstThePairReturningRecursion:
    """The run-owned colour maps give what copying (raw, scope) pairs up each level gives."""

    @staticmethod
    def graphs():
        rng = random.Random(83)
        for seed in range(200):
            yield random_partial_ktree(rng.randint(1, 40), rng.randint(1, 3), seed)
        for n in (3, 4, 5, 9, 17, 30):
            yield cycle_graph(n)
        for length in (1, 2, 5, 12, 25):
            yield ladder(length)

    def test_same_colouring_certificate_or_error(self, monkeypatch):
        # A small cap on every 7th graph reaches ResourceLimitError; a
        # dichotomy that hits nothing on every 11th reaches the h-1 check.
        clean = Dichotomy(hitting_set=())
        arms = set()
        for gi, g in enumerate(self.graphs()):
            dec = decompose(g)
            cap = 4 if gi % 7 == 0 else colouring.FIND_MODEL_CAP
            with monkeypatch.context() as patch:
                if gi % 11 == 5:
                    patch.setattr(colouring, "disjoint_or_hitting", lambda *args: clean)
                for h in (1, 2, 3):
                    for d in (1, 2, 3):
                        want = _outcome(reference_colour_bounded_tw, g, h, d, dec, cap)
                        got = _outcome(colour_bounded_tw, g, h, d, dec, cap)
                        arms.add(want.__name__ if isinstance(want, type) else type(want).__name__)
                        assert_same_outcome(got, want)
        assert arms == {"Colouring", "OddModelCertificate", "InternalConsistencyError", "ResourceLimitError"}


def assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    elif isinstance(want, OddModelCertificate):
        assert isinstance(got, OddModelCertificate)
        assert (got.h, got.d, got.model, got.witness) == (want.h, want.d, want.model, want.witness)
    else:
        assert isinstance(got, type(want))
        assert list(got.colour.items()) == list(want.colour.items())
        assert list(got.scope.items()) == list(want.scope.items())
        assert (got.num_colours, got.max_cluster) == (want.num_colours, want.max_cluster)
