import functools
import gc
import inspect
import random
import sys
from collections import Counter

import pytest

from oddcluster import (
    Budgets,
    Graph,
    Model,
    OddModelCertificate,
    assemble_certificate,
    bfs_layers,
    clustering_budget,
    colour_bounded_tw,
    colour_budget,
    colour_pipeline,
    connected_components,
    connected_tree_depth,
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
from oddcluster.colouring import _assert_scope_locality, monochromatic_components
from oddcluster.decomposition import TreeDecomposition, decompose, restrict_decomposition
from oddcluster.eposa import Dichotomy, Target, disjoint_or_hitting
from oddcluster.errors import InternalConsistencyError, ResourceLimitError
from oddcluster.generators import (
    complete_graph,
    cycle_graph,
    random_partial_ktree,
    star_graph,
)
from conftest import (
    _components,
    check_layered_tree,
    eager_colour_pipeline,
    empty_graph,
    layer_oracle,
    path_graph,
    random_tree,
    reference_bfs_layers,
    trivial_decomposition,
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

    def test_the_least_edge_over_the_cap(self):
        g = cycle_graph(60)
        out = colour_bounded_tw(g, 1, 2, decompose(g), cap=3)
        assert out.model.branch_sets == {0: (0, 1)} and out.witness == {0: 1, 1: 0}
        check_certificate(g, out)


class TestLowHeightsDecideOverTheCap:
    """At h <= 2 every search asks for a non-trivial K_1, which is answered before the cap.

    While K_1 was answered after the cap, 114 of the 270 partial k-trees
    below, 5 of the 20 pipelines and the hub ended in ResourceLimitError.
    """

    @staticmethod
    def decided(g, out, h, d, w):
        if isinstance(out, OddModelCertificate):
            assert (out.h, out.d) == (h, d)
            check_certificate(g, out)
        else:
            assert verify_colouring(g, out, colour_budget(h), clustering_budget(d, w)) == (True, None)
        return type(out).__name__

    @staticmethod
    def over_the_cap(monkeypatch):
        """Patch the colour module's search to record whether it was asked a region over the cap."""
        asked = []
        real = colouring.find_odd_model

        def recorded(g, pattern, region, *args, **kwargs):
            asked.append(len(region) > colouring.FIND_MODEL_CAP)
            return real(g, pattern, region, *args, **kwargs)

        monkeypatch.setattr(colouring, "find_odd_model", recorded)
        return asked

    def test_wide_partial_ktrees_at_h2(self, monkeypatch):
        asked = self.over_the_cap(monkeypatch)
        over = 0
        for k in (26, 30, 40):
            for seed in range(30):
                g = random_partial_ktree(120, k, seed, 0.9)
                dec = decompose(g)
                for d in (1, 2, 3):
                    asked.clear()
                    self.decided(g, colour_bounded_tw(g, 2, d, dec), 2, d, dec.width)
                    over += any(asked)
        assert over >= 100  # 114 ended in ResourceLimitError

    def test_pipeline_against_the_star(self, monkeypatch):
        asked = self.over_the_cap(monkeypatch)
        for seed in range(20):
            g = random_partial_ktree(150, 30, seed, 0.9)
            self.decided(g, colour_pipeline(g, star_graph(4)), 2, 4, decompose(g).width)
        assert any(asked)  # 5 ended in ResourceLimitError

    def test_hub_joined_to_a_clique(self):
        # the hub 0 joined to K_30 on 1..30; layer 1's region is K_29, one
        # bag, so the dichotomy's one stop hits all of it
        g = Graph(31, [(a, b) for a in range(31) for b in range(a + 1, 31)])
        dec = decompose(g)
        assert self.decided(g, colour_bounded_tw(g, 2, 2, dec), 2, 2, dec.width) == "Colouring"


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

    def test_each_scope_tag_names_one_component_of_its_side(self):
        # each monochromatic component is coloured by its own run, whose tags
        # all start at /c0: the red {0,1} and {4,5} must still not share one
        rng = random.Random(67)
        cases = [(Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2), (3, 4), (5, 6)]), "rrbbrrbb")]
        for seed in range(30):
            g = random_partial_ktree(rng.randint(2, 30), rng.randint(1, 2), seed)
            cases.append((g, [rng.choice("rb") for _ in range(g.n)]))
        coloured = 0
        for g, partition in cases:
            out = colour_pipeline(g, complete_graph(3), partition=partition)
            if isinstance(out, OddModelCertificate):
                continue
            coloured += 1
            component = {}
            for side in "rb":
                for comp in connected_components(g, [v for v in range(g.n) if partition[v] == side]):
                    component.update(dict.fromkeys(comp, comp))
            named = {}
            for v, tag in out.scope.items():
                named.setdefault(tag, set()).add(component[v])
            assert all(len(comps) == 1 for comps in named.values()), named
        assert coloured > 20


class TestComponentDecompositionOnDemand:
    """The pipeline decomposes a component only when a layer region or the cluster check needs it."""

    PATTERNS = {"K3": complete_graph(3), "P4": path_graph(4), "C4": cycle_graph(4), "K4": complete_graph(4)}

    def test_same_result_as_decomposing_every_component(self):
        # K3, P4, C4 and K4 (h = 3 or 4) colour these graphs, some with a
        # cluster over d, which makes the cluster check read the width of its
        # component's decomposition; the stars K2 and P3 (h = 2) find
        # certificates in them, every 4th graph being all red
        rng = random.Random(1627)
        patterns = [*self.PATTERNS.values(), path_graph(2), path_graph(3)]
        arms, over_d = Counter(), 0
        for seed in range(250):
            g = random_partial_ktree(rng.randint(1, 40), rng.randint(1, 3), seed)
            partition = ["r"] * g.n if seed % 4 == 0 else [rng.choice("rb") for _ in range(g.n)]
            for pattern in patterns:
                want = eager_colour_pipeline(g, pattern, partition)
                got = colour_pipeline(g, pattern, partition)
                assert_same_outcome(got, want)
                arms[type(want).__name__] += 1
                over_d += isinstance(want, colouring.Colouring) and want.max_cluster > pattern.n
        assert arms["Colouring"] > 1000 and arms["OddModelCertificate"] > 50, arms
        assert over_d > 0

    def test_components_without_room_are_not_decomposed(self, monkeypatch):
        # each monochromatic component is a path or a cycle: every BFS layer
        # has at most two vertices, so no layer region reaches the room of a
        # non-trivial model, at any level, and no cluster exceeds d
        def refuse(*args):
            raise AssertionError("a component without room was decomposed")

        monkeypatch.setattr(colouring, "decompose", refuse)
        n, width = 63, 9  # a 7 x 9 grid whose rows alternate red and blue
        rows = [(v, v + 1) for v in range(n) if (v + 1) % width]
        grid = Graph(n, rows + [(v, v + width) for v in range(n - width)])
        cases = [(grid, ["rb"[v // width % 2] for v in range(n)]), (cycle_graph(12), "rrrrbbbbbbbb")]
        for g, partition in cases:
            for pattern in self.PATTERNS.values():
                out = colour_pipeline(g, pattern, partition)
                assert isinstance(out, colouring.Colouring)
                f_h = colour_budget(connected_tree_depth(pattern)[0])
                ok, why = verify_colouring(g, out, 2 * f_h, clustering_budget(pattern.n, 0))
                assert ok, why

    @staticmethod
    def blob_chain(seed, blobs):
        """Red partial 3-trees of 12 to 15 vertices joined in a chain by blue connectors, as ``partitioned``'s."""
        rng = random.Random(seed)
        edges, partition, prev = [], [], None
        for _ in range(blobs):
            size, base = rng.randint(12, 15), len(partition)
            blob = random_partial_ktree(size, 3, rng.randrange(2**31), edge_keep=rng.uniform(0.8, 0.9))
            edges += [(base + a, base + b) for a, b in sorted(blob.edges)]
            partition += "r" * size
            if prev is not None:
                partition.append("b")
                edges += [(prev, len(partition) - 1), (len(partition) - 1, base + rng.randrange(size))]
            prev = base + rng.randrange(size)
        return Graph(len(partition), edges), partition

    def test_only_components_with_a_model_holding_layer_are_decomposed(self, monkeypatch):
        # the pair-returning reference walks every layer region at every
        # level; a component none of whose regions holds a model of its
        # level's U is neither copied nor decomposed, unless the cluster check
        # reads its width (a cluster over d); the stars K2 and P3 find
        # certificates, after which no later component is coloured
        copied, decomposed = [], []
        induced, real_decompose = colouring.induced_subgraph, colouring.decompose

        def copying(g, comp):
            copied.append(tuple(comp))
            return induced(g, comp)

        def decomposing(g):
            decomposed.append(g.n)
            return real_decompose(g)

        monkeypatch.setattr(colouring, "induced_subgraph", copying)
        monkeypatch.setattr(colouring, "decompose", decomposing)
        patterns = [*self.PATTERNS.values(), path_graph(2), path_graph(3)]
        arms, needed = Counter(), 0
        for seed in range(12):
            g, partition = self.blob_chain(seed, 6)
            for pattern in patterns:
                copied.clear()
                decomposed.clear()
                got = colour_pipeline(g, pattern, partition)
                want = self.components_needing_a_decomposition(g, pattern, partition)
                assert set(copied) == want and len(copied) == len(decomposed) == len(want)
                assert_same_outcome(got, eager_colour_pipeline(g, pattern, partition))
                arms[type(got).__name__] += 1
                needed += len(want)
        assert arms["Colouring"] > 40 and arms["OddModelCertificate"] > 15, arms
        assert needed > 80

    @staticmethod
    def components_needing_a_decomposition(g, pattern, partition):
        """The components, up to the first certificate, with a model-holding layer region or a cluster over d."""
        h, d = connected_tree_depth(pattern)[0], pattern.n
        need, holding = set(), []
        walk = colouring.disjoint_or_hitting

        def recording(g, dec, oracle, ell):
            holding.append(oracle(frozenset().union(*dec.bags)) is not None)
            return walk(g, dec, oracle, ell)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(colouring, "disjoint_or_hitting", recording)
            for side in "rb":
                for comp in connected_components(g, [v for v in range(g.n) if partition[v] == side]):
                    gcomp, comp_map = induced_subgraph(g, comp)
                    dec = decompose(gcomp)
                    dec = TreeDecomposition(dec.parent, [[comp_map[v] for v in bag] for bag in dec.bags])
                    holding.clear()
                    out = reference_colour_bounded_tw(g, h, d, dec, cap=24)
                    if any(holding) or isinstance(out, colouring.Colouring) and out.max_cluster > d:
                        need.add(tuple(comp))
                    if isinstance(out, OddModelCertificate):
                        return need
        return need

    def test_each_component_is_decomposed_at_most_once(self, monkeypatch):
        copied = []
        induced = colouring.induced_subgraph

        def counted(g, comp):
            copied.append(tuple(comp))
            return induced(g, comp)

        monkeypatch.setattr(colouring, "induced_subgraph", counted)
        rng = random.Random(1709)
        components = 0
        for seed in range(40):
            g = random_partial_ktree(rng.randint(10, 40), rng.randint(2, 3), seed)
            partition = [rng.choice("rrb") for _ in range(g.n)]
            for side in "rb":
                components += len(connected_components(g, [v for v in range(g.n) if partition[v] == side]))
            colour_pipeline(g, complete_graph(3), partition)
        assert len(copied) == len(set(copied))
        assert 0 < len(copied) < components


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


def hub_and_connectors(n_leaves):
    """Hub 0 joined to leaves 1..L, connector L+i joined to leaves i and i+1."""
    return Graph(
        2 * n_leaves,
        [(0, i) for i in range(1, n_leaves + 1)]
        + [e for i in range(1, n_leaves) for e in ((i, n_leaves + i), (i + 1, n_leaves + i))],
    )


def counted(calls, name, fn):
    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counting


class TestModelFreeRegions:
    """A layer region is asked once, whole: one that holds no model is neither restricted nor walked."""

    def test_hub_graph_asks_each_layer_once(self, monkeypatch):
        # layers 1 (the leaves) and 2 (the connectors) are independent sets of
        # 2000 and 1999 vertices: neither holds an edge, the K_1 of U_{1,2}, and
        # a walk of layer 1's path-shaped decomposition took 1.2 s
        calls = Counter()
        for name in ("restrict_decomposition", "disjoint_or_hitting"):
            monkeypatch.setattr(colouring, name, counted(calls, name, getattr(colouring, name)))
        g = hub_and_connectors(2000)
        dec = decompose(g)
        out = colour_bounded_tw(g, 2, 2, dec)
        assert not calls
        assert_same_outcome(out, reference_colour_bounded_tw(g, 2, 2, dec))
        assert calls["disjoint_or_hitting"] == 2

    def test_a_region_over_the_cap_is_still_walked(self):
        # hub 0 over 1..26; layer 1's region holds the path 2..14, over the
        # cap of 12, and the 6-vertex paths 15..20 and 21..26, each an odd
        # U_{2,2}-model.  The whole-region ask reaches the long path first and
        # gives up, but the walk of this path-shaped decomposition, rooted at
        # the long path's end, stops on the two short ones without asking it
        paths = [range(2, 15), range(15, 21), range(21, 27)]
        g = Graph(27, [(0, v) for v in range(1, 27)] + [(v, v + 1) for p in paths for v in p[:-1]])
        bags = [(0, 1)] + [(0, v, v + 1) for p in paths for v in p[:-1]]
        dec = TreeDecomposition(range(-1, len(bags) - 1), bags)
        with pytest.raises(ResourceLimitError):
            layer_oracle(g, u_graph(2, 2), 12)(frozenset(range(2, 27)))
        out = colour_bounded_tw(g, 3, 2, dec, cap=12)
        assert isinstance(out, OddModelCertificate)
        assert_same_outcome(out, reference_colour_bounded_tw(g, 3, 2, dec, cap=12))

    def test_the_walk_shares_the_whole_region_asks_memo(self, monkeypatch):
        # hub 0 over the path 1..7: layer 1's region, the path 2..7, is one
        # component holding an odd U_{2,2}-model.  The whole-region ask
        # searches it and finds the model; the walk then asks a region that
        # holds the whole path and takes the answer from the same memo
        path = tuple(range(2, 8))
        searched, walked = Counter(), []
        real_search, real_dichotomy = colouring.find_odd_model, colouring.disjoint_or_hitting

        def search(*args, **kwargs):
            searched[tuple(sorted(args[2]))] += 1
            return real_search(*args, **kwargs)

        def dichotomy(g, dec, oracle, ell):
            def asking(region):
                walked.append(region)
                return oracle(region)

            return real_dichotomy(g, dec, asking, ell)

        monkeypatch.setattr(colouring, "find_odd_model", search)
        monkeypatch.setattr(colouring, "disjoint_or_hitting", dichotomy)
        g = Graph(8, [(0, v) for v in range(1, 8)] + [(v, v + 1) for v in range(1, 7)])
        out = colour_bounded_tw(g, 3, 2, decompose(g))
        assert not isinstance(out, OddModelCertificate)
        assert any(region.issuperset(path) for region in walked)
        assert searched[path] == 1

    def test_hub_graph_of_20000_leaves_colours(self):
        g = hub_and_connectors(20_000)
        dec = decompose(g)
        out = colour_bounded_tw(g, 2, 2, dec)
        ok, why = verify_colouring(g, out, colour_budget(2), clustering_budget(2, dec.width))
        assert ok, why


class TestComponentOracle:
    """The layer oracle searches component by component, with the cap per component."""

    @staticmethod
    def assert_first_component_model(oracle, g, pattern, region, cap=24):
        got = oracle(region)
        want = first_component_model(g, pattern, region, cap)
        assert (got is None) == (want is None), sorted(region)
        if want is not None:
            assert got.payload == want
            assert list(got.payload[1]) == list(want[1])
            assert got.support == tuple(want[0].covered_vertices())
        if len(region) <= cap:
            whole = find_odd_model(g, pattern, sorted(region), require_nontrivial=True, cap=cap)
            assert (got is None) == (whole is None), sorted(region)

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
                oracle = layer_oracle(g, pattern, 24)
                for _ in range(6):
                    region = frozenset(rng.sample(range(n), rng.randint(6, 16)))
                    self.assert_first_component_model(oracle, g, pattern, region)
                    found += oracle(region) is not None
                    several += _components_with_a_model(oracle, g, region) >= 2
        assert found > 100 and several > 20

    def test_colouring_regions_agree_with_whole_region_search(self, monkeypatch):
        # the regions the dichotomy asks about while colouring small-search-like
        # inputs and the partial 2-trees below, whose layers exceed the cap,
        # each checked against the per-component reference and, when within
        # the cap, against the whole-region search; a layer region too small
        # to hold a non-trivial model asks nothing, and one that holds none
        # asks once, whole, so the regions large enough to hold one get their
        # own floor, and 18 partial 2-trees keep the asks over the floors
        asked = []
        real = colouring._Run.oracle
        signature = inspect.signature(real)

        def recording(run, *args, **kwargs):
            call = signature.bind(run, *args, **kwargs).arguments
            asked.append((run.g, call["pattern"], run.cap, call["region"]))
            return real(run, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(colouring._Run, "oracle", recording)
            rng = random.Random(14)
            for _ in range(24):
                n = rng.randint(16, 30)
                k, seed, keep = rng.choice((3, 4)), rng.randrange(2**31), rng.uniform(0.8, 0.9)
                g = random_partial_ktree(n, k, seed, edge_keep=keep)
                colour_bounded_tw(g, 3, rng.choice((2, 3)), decompose(g))
            for seed in range(18):
                g = random_partial_ktree(100, 2, seed)
                colour_bounded_tw(g, 3, 2, decompose(g))
        checked = large = over = 0
        oracles = {}
        for g, pattern, cap, region in asked:
            key = id(g), id(pattern), cap
            if key not in oracles:
                oracles[key] = layer_oracle(g, pattern, cap)
            self.assert_first_component_model(oracles[key], g, pattern, region, cap)
            checked += 1
            large += len(region) >= 2 * pattern.n
            over += len(region) > cap
        assert checked > 800 and large > 150 and over > 10

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

    @staticmethod
    def two_components_with_a_model():
        """The paths 0-20-21-22-23-24 and 1-2-3-4-5-6, each holding a model of U_{2,2}."""
        g = Graph(25, [(0, 20), (20, 21), (21, 22), (22, 23), (23, 24)] + [(v, v + 1) for v in range(1, 6)])
        return g, frozenset([0, *range(1, 7), *range(20, 25)])

    def test_the_least_component_wins_over_the_least_root_vertex(self):
        # the component of vertex 0, whose model's root branch set is (21, 22),
        # is walked first and answers, though the other one's model, rooted
        # at 3, comes first in whole-region search order
        g, region = self.two_components_with_a_model()
        pattern = u_graph(2, 2)
        target = layer_oracle(g, pattern, 24)(region)
        assert target.payload == find_odd_model(g, pattern, [0, *range(20, 25)], require_nontrivial=True)
        assert target.payload[0].branch_sets[0] == (21, 22)
        assert find_odd_model(g, pattern, sorted(region), require_nontrivial=True)[0].branch_sets[0] == (3, 4)

    def test_components_after_the_first_model_are_not_searched(self, monkeypatch):
        # one search, of the component of vertex 0, answers
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return find_odd_model(*args, **kwargs)

        monkeypatch.setattr(colouring, "find_odd_model", counting)
        g, region = self.two_components_with_a_model()
        target = layer_oracle(g, u_graph(2, 2), 24)(region)
        assert calls == [[0, 20, 21, 22, 23, 24]]
        assert target.support == (0, 20, 21, 22, 23, 24)

    def test_a_component_over_the_cap_after_a_model_is_not_searched(self):
        # a 6-vertex path holding a model of U_{2,2}, then a 13-vertex path
        # over the cap of 12: the first answers before the second is reached
        g = Graph(19, [(v, v + 1) for v in range(18) if v != 5])
        pattern = u_graph(2, 2)
        with pytest.raises(ResourceLimitError):
            layer_oracle(g, pattern, 12)(frozenset(range(6, 19)))
        target = layer_oracle(g, pattern, 12)(frozenset(range(19)))
        assert target.payload == find_odd_model(g, pattern, range(6), require_nontrivial=True)

    def test_the_cap_applies_per_component(self):
        # two disjoint 13-vertex paths: 26 region vertices, 13 per component
        g = Graph(26, [(v, v + 1) for v in range(25) if v != 12])
        pattern = u_graph(2, 2)
        with pytest.raises(ResourceLimitError):
            find_odd_model(g, pattern, range(26), require_nontrivial=True, cap=24)
        target = layer_oracle(g, pattern, 24)(frozenset(range(26)))
        assert target.payload == find_odd_model(g, pattern, range(26), require_nontrivial=True, cap=26)
        with pytest.raises(ResourceLimitError):
            layer_oracle(g, pattern, 12)(frozenset(range(26)))

    def test_memory_follows_the_components_not_the_walk(self):
        # the hub graph's layer 1, the leaves, restricts to a path-shaped
        # decomposition whose every node asks a new, larger region of
        # singleton components; a memo of the regions held all of them (6.0 MB
        # traced at L = 500, 22.9 MB at L = 1000).  The colour recursion asks
        # this model-free region once, whole, so the walk is run here directly
        import tracemalloc

        g = hub_and_connectors(500)
        dec_1 = restrict_decomposition(decompose(g), range(2, 501))
        tracemalloc.start()
        try:
            dich = disjoint_or_hitting(g, dec_1, layer_oracle(g, u_graph(1, 2), 24), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dich.hitting_set == ()
        assert peak < 2_000_000, f"peak traced memory {peak} bytes"


def first_component_model(g, pattern, region, cap):
    """Each component's own search, in least-vertex order, up to the first that finds a model."""
    for comp in connected_components(g, region):
        found = find_odd_model(g, pattern, comp, require_nontrivial=True, cap=cap)
        if found is not None:
            return found
    return None


def first_component_oracle(g, pattern, cap):
    """A layer oracle answered by ``first_component_model`` on one component at a time, each searched once."""
    model = functools.cache(lambda comp: first_component_model(g, pattern, comp, cap))

    def oracle(region):
        for comp in connected_components(g, region):
            found = model(comp)
            if found is not None:
                return Target(tuple(found[0].covered_vertices()), found)
        return None

    return oracle


def _components_with_a_model(oracle, g, region):
    return sum(oracle(comp) is not None for comp in _components(g.adj, region))


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

    def test_clustering_budget_through_the_pipeline(self, monkeypatch):
        # the width is read for a cluster over d; a budget of 0 is under any cluster
        monkeypatch.setattr(colouring, "clustering_budget", lambda d, w: 0)
        g = cycle_graph(8)
        with pytest.raises(InternalConsistencyError, match="cluster of"):
            colour_pipeline(g, complete_graph(3), partition="rrrbbrrb")

    def test_model_in_a_region_certified_clean(self, monkeypatch):
        # a dichotomy that hits nothing leaves layer 1 of the wheel, a path
        # on the rim, to the h-1 recursion, which finds an edge in it
        monkeypatch.setattr(colouring, "disjoint_or_hitting", lambda *args: Dichotomy(hitting_set=()))
        g = Graph(8, [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)])
        with pytest.raises(InternalConsistencyError, match="certified clean"):
            colour_bounded_tw(g, 2, 2, decompose(g))

    def test_k1_certificate(self, monkeypatch):
        # the h = 1 certificate is checked like an assembled one
        real = colouring.find_odd_model

        def monochromatic(g, pattern, *args, **kwargs):
            found = real(g, pattern, *args, **kwargs)
            if found is not None and pattern.n == 1:
                (a, b), witness = found[0].branch_sets[0], found[1]
                witness[b] = witness[a]
            return found

        monkeypatch.setattr(colouring, "find_odd_model", monochromatic)
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

    @pytest.mark.parametrize("h", [1, 2])
    @pytest.mark.parametrize("outside", [3, -1])
    def test_bags_outside_the_graph_are_refused(self, h, outside):
        # checked once on entry: no walk of the recursion is left to catch it
        dec = TreeDecomposition([-1, 0], [[0, 1], [2, outside]])
        with pytest.raises(ValueError, match=r"leave 0\.\.2"):
            colour_bounded_tw(path_graph(3), h, 1, dec)


class TestOneWalkPerComponent:
    """The colour recursion finds each component by the BFS layering that colours it."""

    def test_components_are_not_found_separately(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("colour_bounded_tw called connected_components")

        monkeypatch.setattr(colouring, "connected_components", refuse)
        graphs = [Graph(8, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 7)]), random_partial_ktree(30, 2, 5)]
        graphs += [random_partial_ktree(25, 3, seed, edge_keep=0.5) for seed in range(10)]
        for g in graphs:
            dec = decompose(g)
            for h in (1, 2, 3):
                for d in (1, 2):
                    colour_bounded_tw(g, h, d, dec)


class TestNoCyclicGarbage:
    """The searches free what they build as they return, without the cycle collector.

    Each test collects right before its measured call: pytest drops an
    earlier failed test's traceback, a cycle, after the fixtures have run.
    """

    @pytest.fixture
    def collector_off(self):
        gc.disable()
        yield
        gc.enable()

    def test_find_odd_model(self, collector_off):
        g = random_partial_ktree(16, 3, 1)
        gc.collect()
        assert find_odd_model(g, u_graph(2, 2), require_nontrivial=True) is not None
        assert gc.collect() == 0

    def test_colour_bounded_tw(self, collector_off):
        g = random_partial_ktree(16, 3, 1)
        gc.collect()
        assert not isinstance(colour_bounded_tw(g, 3, 2, decompose(g)), OddModelCertificate)
        assert gc.collect() == 0

    def test_colour_pipeline(self, collector_off):
        g = random_partial_ktree(30, 2, 1)
        partition = ["rb"[v % 3 == 0] for v in range(g.n)]
        gc.collect()
        assert not isinstance(colour_pipeline(g, complete_graph(3), partition), OddModelCertificate)
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
        if edge is not None:  # the least edge, its lesser end blue
            a, b = edge
            model = Model(pattern=u_graph(1, d), branch_sets={0: edge}, branch_trees={0: (edge,)})
            return OddModelCertificate(h=1, d=d, model=model, witness={a: 1, b: 0})
        tag = f"{prefix}/base" if prefix else "base"
        return dict.fromkeys(sorted(xs), 0), dict.fromkeys(sorted(xs), tag)
    raw = {}
    scope = {}
    for ci, comp in enumerate(connected_components(g, xs)):
        out = _reference_component(g, h, d, dec, cap, comp, f"{prefix}/c{ci}")
        if isinstance(out, OddModelCertificate):
            return out
        raw.update(out[0])
        scope.update(out[1])
    return raw, scope


def _reference_component(g, h, d, dec, cap, comp, prefix):
    layering = reference_bfs_layers(g, comp[0], comp)
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
        dich = colouring.disjoint_or_hitting(g, dec_i, first_component_oracle(g, pattern, cap), d)
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
