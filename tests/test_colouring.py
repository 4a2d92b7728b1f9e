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
    layered_spanning_tree,
    u_graph,
    verify_colouring,
    verify_model,
    verify_odd_witness,
)
from oddcluster.colouring import _assert_scope_locality, monochromatic_components
from oddcluster.decomposition import TreeDecomposition, decompose, trivial_decomposition
from oddcluster.errors import InternalConsistencyError
from oddcluster.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_partial_ktree,
    random_tree,
    star_graph,
)


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
        tree = layered_spanning_tree(g, layering, 2, 2)
        return g, layering, tree, found

    def test_d1_h2(self):
        g, layering, tree, found = self._fixture()
        cert = assemble_certificate(g, layering, 2, 2, tree, [found], 2, 1)
        check_certificate(g, cert)
        assert set(cert.model.branch_sets[0]) == tree.vertices()

    def test_parity_colouring_proper(self):
        g, layering, tree, found = self._fixture()
        cert = assemble_certificate(g, layering, 2, 2, tree, [found], 2, 1)
        layer_of = layering.layer_of()
        for c, p in tree.parent.items():
            assert cert.witness.colour[c] != cert.witness.colour[p]
        for v in tree.vertices():
            if layer_of[v] == 1:
                assert cert.witness.colour[v] == 0  # layer i-1 is red

    def test_monochromatic_join_to_layer_below(self):
        g, layering, tree, found = self._fixture()
        cert = assemble_certificate(g, layering, 2, 2, tree, [found], 2, 1)
        child_set = cert.model.branch_sets[1]
        reds = [v for v in child_set if cert.witness.colour[v] == 0]
        assert any(
            cert.witness.colour.get(u) == 0 for v in reds for u in g.adj[v] if u in tree.vertices()
        )

    def test_rejects_wrong_count(self):
        g, layering, tree, found = self._fixture()
        with pytest.raises(ValueError):
            assemble_certificate(g, layering, 2, 2, tree, [found, found], 2, 1)

    def test_rejects_trivial_submodel(self):
        g, layering, tree, _ = self._fixture()
        trivial = find_odd_model(g, u_graph(1, 1), region=[3, 4], require_nontrivial=False)
        with pytest.raises(ValueError):
            assemble_certificate(g, layering, 2, 2, tree, [trivial], 2, 1)


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
            dec = TreeDecomposition(sub_dec.tree, [[m[v] for v in bag] for bag in sub_dec.bags])
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
                assert got.witness.colour == {m[v]: c for v, c in want.witness.colour.items()}
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
