import random
import time
import tracemalloc
from itertools import combinations

import pytest

from oddcluster import (
    Graph,
    find_odd_model,
    is_nontrivial,
    odd_minor_oracle,
    u_graph,
    verify_model,
    verify_odd_witness,
)
from oddcluster.errors import ResourceLimitError
from oddcluster import oddmodel
from oddcluster.oddmodel import Model, _connected_masks
from oddcluster.oracles import _spanning_trees, _tree_two_colourings
from oddcluster.generators import complete_graph, cycle_graph, random_partial_ktree, star_graph
import conftest
from conftest import (
    connected_subsets,
    is_bipartite,
    parity_realizable,
    path_graph,
    random_small_graph,
    reference_find_odd_model,
)

K1 = Graph(1)
K2 = Graph(2, [(0, 1)])
K3 = complete_graph(3)
P3 = path_graph(3)


class TestVerifyModel:
    def test_edge_k2(self):
        m = Model(K2, {0: (0,), 1: (1,)}, {0: (), 1: ()})
        ok, _ = verify_model(K2, m)
        assert ok

    def test_no_joining_edge(self):
        g = path_graph(3)
        m = Model(K2, {0: (0,), 1: (2,)}, {0: (), 1: ()})
        ok, why = verify_model(g, m)
        assert not ok and "realizing" in why

    def test_five_cycle_k3(self):
        g = cycle_graph(5)
        m = Model(
            K3,
            {0: (0, 1), 1: (2,), 2: (3, 4)},
            {0: ((0, 1),), 1: (), 2: ((3, 4),)},
        )
        ok, why = verify_model(g, m)
        assert ok, why

    def test_overlapping_sets(self):
        m = Model(K2, {0: (0, 1), 1: (1,)}, {0: ((0, 1),), 1: ()})
        ok, why = verify_model(K2, m)
        assert not ok and "two branch sets" in why

    def test_a_set_that_repeats_a_vertex(self):
        m = Model(K2, {0: (0, 1, 0), 1: (2,)}, {0: ((0, 1),), 1: ()})
        assert verify_model(path_graph(3), m) == (False, "branch set of 0 repeats vertex 0")

    def test_broken_tree(self):
        g = path_graph(4)
        m = Model(K1, {0: (0, 1, 3)}, {0: ((0, 1),)})
        ok, why = verify_model(g, m)
        assert not ok and "spanning tree" in why


class TestVerifyOddWitness:
    def test_both_red(self):
        m = Model(K2, {0: (0,), 1: (1,)}, {0: (), 1: ()})
        ok, _ = verify_odd_witness(K2, m, {0: 0, 1: 0})
        assert ok

    def test_red_blue_fails(self):
        m = Model(K2, {0: (0,), 1: (1,)}, {0: (), 1: ()})
        ok, why = verify_odd_witness(K2, m, {0: 0, 1: 1})
        assert not ok and "monochromatic" in why

    def test_path_as_k2_model(self):
        g = path_graph(4)  # a-b-c-d = 0-1-2-3
        m = Model(K2, {0: (0, 1), 1: (2, 3)}, {0: ((0, 1),), 1: ((2, 3),)})
        ok, why = verify_odd_witness(g, m, {0: 0, 1: 1, 2: 1, 3: 0})
        assert ok, why

    def test_missing_vertex_is_reported(self):
        m = Model(K2, {0: (0,), 1: (1,)}, {0: (), 1: ()})
        ok, why = verify_odd_witness(K2, m, {0: 0})
        assert not ok and "misses covered vertex 1" in why

    def test_vertex_outside_the_branch_sets_is_reported(self):
        m = Model(K1, {0: (0, 1)}, {0: ((0, 1),)})
        for extra in (2, 99999, -1):
            ok, why = verify_odd_witness(path_graph(3), m, {0: 0, 1: 1, extra: 0})
            assert (ok, why) == (False, f"witness colours vertex {extra}, which no branch set covers")

    def test_tree_edge_leaving_the_witness_is_reported(self):
        m = Model(K1, {0: (0, 1)}, {0: ((1, 2),)})
        ok, why = verify_odd_witness(path_graph(3), m, {0: 0, 1: 1})
        assert not ok and "uncoloured end" in why

    def test_monochromatic_tree_edge(self):
        g = path_graph(2)
        m = Model(K1, {0: (0, 1)}, {0: ((0, 1),)})
        ok, why = verify_odd_witness(g, m, {0: 0, 1: 0})
        assert not ok and "branch tree" in why


class TestNontrivial:
    @pytest.mark.parametrize(
        "sets,expect",
        [
            ({0: (0,), 1: (1,)}, False),
            ({0: (0, 1), 1: (2, 3)}, True),
            ({0: (0, 1), 1: (2,)}, False),
        ],
    )
    def test_cases(self, sets, expect):
        m = Model(K2, sets, {x: () for x in sets})
        assert is_nontrivial(m) is expect


class TestParityRealizable:
    def test_singleton(self):
        assert parity_realizable(K1, (0,), {0: 0})
        assert parity_realizable(K1, (0,), {0: 1})

    def test_monochromatic_edge(self):
        assert not parity_realizable(K2, (0, 1), {0: 0, 1: 0})
        assert parity_realizable(K2, (0, 1), {0: 0, 1: 1})

    def test_triangle_two_one(self):
        assert parity_realizable(K3, (0, 1, 2), {0: 0, 1: 0, 2: 1})

    def test_triangle_all_same(self):
        assert not parity_realizable(K3, (0, 1, 2), {0: 1, 1: 1, 2: 1})

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            parity_realizable(K1, (), {})

    def test_matches_spanning_tree_enumeration(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_small_graph(rng, 6, n_min=1)
            comp = _a_component(g)
            for bits in range(1 << len(comp)):
                col = {v: bits >> i & 1 for i, v in enumerate(comp)}
                expect = any(
                    all(col[a] != col[b] for a, b in tree)
                    for tree in _spanning_trees(g, comp)
                )
                assert parity_realizable(g, comp, col) == expect


def _a_component(g):
    from oddcluster import connected_components

    return connected_components(g)[0]


class TestConnectedSubsetEnumeration:
    """The mask enumerator, with bit v for vertex v of a small graph."""

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_small_graph(rng, 7)
            adjmask, avail = _masks(g, range(g.n))
            got = set()
            for mask, nbhd in _connected_masks(adjmask, avail, 1, lambda cur: True):
                s = _vertices(mask)
                assert s not in got, "subset enumerated twice"
                got.add(s)
                assert nbhd == _union(adjmask, mask)
            assert got == _brute_connected_subsets(g, set(range(g.n)))

    def test_monotone_fits_matches_brute_force_filtering(self):
        # fits is asked once per set of at least min_size vertices, and a set
        # that does not fit is neither yielded nor grown further
        rng = random.Random(6)
        for _ in range(60):
            g = random_small_graph(rng, 8)
            avail = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            adjmask, mask = _masks(g, avail)
            min_size = rng.choice((1, 2))
            heavy = set(rng.sample(sorted(avail), min(len(avail), 3)))
            limit = rng.randint(1, 5)

            def ok(cur):
                return len(cur) <= limit and len(set(cur) & heavy) <= 1

            def fits(cur):
                asked.append(_vertices(cur))
                return ok(asked[-1])

            asked = []
            got = [_vertices(m) for m, _ in _connected_masks(adjmask, mask, min_size, fits)]
            expect = {s for s in _brute_connected_subsets(g, avail) if len(s) >= min_size and ok(s)}
            assert len(got) == len(set(got)) and set(got) == expect
            assert len(asked) == len(set(asked)), "a set was tested twice"
            assert all(len(s) >= min_size for s in asked) and set(got) <= set(asked)
            # each tested set grew from a tested set that fitted, one vertex smaller
            fitted = {s for s in asked if ok(s)}
            for s in asked:
                if len(s) > min_size:
                    assert any(tuple(v for v in s if v != u) in fitted for u in s[1:]), s
            # and the tests come in the set-based enumeration's order
            ref_asked = []

            def ref_fits(cur):
                ref_asked.append(tuple(sorted(cur)))
                return ok(ref_asked[-1])

            list(connected_subsets({v: g.adj[v] & avail for v in avail}, avail, min_size, ref_fits))
            assert asked == ref_asked


def _masks(g, avail):
    """Each vertex's neighbourhood as a mask, and the mask of ``avail``."""
    return [sum(1 << u for u in g.adj[v]) for v in range(g.n)], sum(1 << v for v in avail)


def _vertices(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _union(adjmask, mask):
    out = 0
    for v in _vertices(mask):
        out |= adjmask[v]
    return out


def _brute_connected_subsets(g, avail):
    out = set()
    for r in range(1, len(avail) + 1):
        for c in combinations(sorted(avail), r):
            if _connected(g, c):
                out.add(c)
    return out


def _connected(g, verts):
    vs = set(verts)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in g.adj[v] & vs:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == vs


class TestFindOddModel:
    def test_bipartite_has_no_k3(self):
        assert find_odd_model(cycle_graph(4), K3) is None

    def test_five_cycle_has_k3(self):
        found = find_odd_model(cycle_graph(5), K3)
        assert found is not None
        model, witness = found
        assert verify_model(cycle_graph(5), model)[0]
        assert verify_odd_witness(cycle_graph(5), model, witness)[0]

    def test_star_has_no_nontrivial_k2(self):
        assert find_odd_model(star_graph(4), K2, require_nontrivial=True) is None

    def test_any_edge_gives_nontrivial_k1(self):
        found = find_odd_model(path_graph(2), K1, require_nontrivial=True)
        model, witness = found
        assert len(model.branch_sets[0]) == 2

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            find_odd_model(Graph(30), K2, cap=24)

    def test_a_region_far_over_the_cap_builds_no_masks(self):
        # a 200 000-vertex perfect matching has room for K_3's three edges, so
        # only the cap answers it; masks built before the cap check would take
        # about 2.5 GB (one per vertex, as wide as the region), the region set
        # and its vertices 17.6 MB, and counting room on the adjacency sets
        # about 2 KB
        n = 200_000
        g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                find_odd_model(g, K3, require_nontrivial=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, f"peak traced memory {peak} bytes"
        assert time.perf_counter() - start < 10

    def test_the_whole_graph_is_counted_without_a_region_set(self):
        # room without require_nontrivial is the vertex count: no set of the
        # 200 000 vertices is built before the cap answers (17.6 MB traced
        # when the region set came first)
        n = 200_000
        g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="got 200000"):
                find_odd_model(g, K3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, f"peak traced memory {peak} bytes"

    def test_no_room_is_answered_before_the_cap(self):
        # five vertices cannot hold six branch sets, whatever the cap
        assert find_odd_model(cycle_graph(5), complete_graph(6), cap=3) is None
        with pytest.raises(ResourceLimitError):
            find_odd_model(cycle_graph(6), complete_graph(6), cap=3)

    def test_empty_pattern_is_answered_before_the_cap(self):
        # every region holds the empty model, however large
        model, witness = find_odd_model(cycle_graph(30), Graph(0), cap=24)
        assert model.branch_sets == {} and witness == {}

    def test_region_restriction(self):
        g = cycle_graph(6)
        found = find_odd_model(g, K2, region=[0, 1])
        model, _ = found
        assert set(model.covered_vertices()) <= {0, 1}
        assert find_odd_model(g, K2, region=[0, 2]) is None

    def test_soundness_fuzz(self):
        rng = random.Random(101)
        patterns = [K1, K2, K3, P3, star_graph(3)]
        for _ in range(120):
            g = random_small_graph(rng, 8)
            h = rng.choice(patterns)
            nt = rng.random() < 0.5
            found = find_odd_model(g, h, require_nontrivial=nt)
            if found is None:
                continue
            model, witness = found
            ok, why = verify_model(g, model)
            assert ok, why
            ok, why = verify_odd_witness(g, model, witness)
            assert ok, why
            if nt:
                assert is_nontrivial(model)

    def test_agrees_with_independent_oracle(self):
        rng = random.Random(55)
        for _ in range(60):
            g = random_small_graph(rng, 5)
            for h in (K2, K3):
                assert (find_odd_model(g, h) is not None) == odd_minor_oracle(g, h)

    def test_k3_specialization_exhaustive(self):
        edges5 = list(combinations(range(5), 2))
        for bits in range(1 << len(edges5)):
            g = Graph(5, [e for i, e in enumerate(edges5) if bits >> i & 1])
            col, _ = is_bipartite(g)
            assert (find_odd_model(g, K3) is not None) == (col is None)

    def test_witness_characterization_against_tree_enumeration(self):
        # fix a branch-set family, compare parity-realizable search against
        # direct enumeration of spanning trees and their two colourings
        rng = random.Random(21)
        for _ in range(40):
            g = random_small_graph(rng, 6, n_min=2)
            found = find_odd_model(g, K2)
            sets = None
            if found:
                sets = found[0].branch_sets
            else:
                continue
            expect = _witness_by_tree_enumeration(g, K2, sets)
            assert expect, "search returned a family the tree enumeration rejects"


def _witness_by_tree_enumeration(g, h, sets):
    from itertools import product

    per_set = []
    for x in range(h.n):
        opts = []
        for tree in _spanning_trees(g, sets[x]):
            for col in _tree_two_colourings(sets[x], tree):
                if col not in opts:
                    opts.append(col)
        per_set.append(opts)
    for choice in product(*per_set):
        colour = {}
        for c in choice:
            colour.update(c)
        good = True
        for x, y in h.edges:
            if not any(
                colour[a] == colour[b]
                for a in sets[x]
                for b in g.adj[a]
                if b in set(sets[y])
            ):
                good = False
                break
        if good:
            return True
    return False


class TestAgainstThePreviousSearch:
    """The bitmask search against the set-based one it replaced (``conftest.reference_find_odd_model``).

    Bit order is vertex order, so the two must return the same model and the
    same witness, dict order included.
    """

    PATTERNS = {
        "K1": K1,
        "K2": K2,
        "K3": K3,
        "P4": path_graph(4),
        "C4": cycle_graph(4),
        "K4": complete_graph(4),
        "U22": u_graph(2, 2),
        "U23": u_graph(2, 3),
        "U32": u_graph(3, 2),
    }

    def test_identical_models_and_witnesses(self):
        # K4 and U_{3,2} search a region of at most 9 vertices: an exhaustive
        # miss on 12 vertices takes the reference seconds
        rng = random.Random(4242)
        found = 0
        for _ in range(25):
            g = random_small_graph(rng, 12, n_min=4)
            for name, h in self.PATTERNS.items():
                for nt in (False, True):
                    region = None
                    if name in ("K4", "U32"):
                        region = rng.sample(range(g.n), min(g.n, 9))
                    elif rng.random() < 0.3:
                        region = rng.sample(range(g.n), rng.randint(1, g.n))
                    got = find_odd_model(g, h, region, require_nontrivial=nt)
                    want = reference_find_odd_model(g, h, region, require_nontrivial=nt)
                    assert got == want, (g, name, nt, region)
                    if got is not None:
                        assert list(got[1]) == list(want[1])
                        found += 1
        assert found > 100

    def test_sparse_regions_of_partial_2trees(self, monkeypatch):
        # regions of 12 to 16 vertices, where most candidate sets pass the
        # join test and the room bound does the pruning; both searches must
        # ask it equally often, which a bound that kept the candidate's own
        # vertices would not, though it returns the same models
        asked = {"masks": 0, "sets": 0}
        has_room, subsets = oddmodel._has_room, conftest.connected_subsets

        def counted_room(*args):
            asked["masks"] += 1
            return has_room(*args)

        def counted_subsets(adj, available, min_size, fits):
            def counted_fits(current):
                asked["sets"] += 1
                return fits(current)

            return subsets(adj, available, min_size, counted_fits)

        monkeypatch.setattr(oddmodel, "_has_room", counted_room)
        monkeypatch.setattr(conftest, "connected_subsets", counted_subsets)
        rng = random.Random(2718)
        found = 0
        for _ in range(10):
            g = random_partial_ktree(20, 2, rng.randrange(1 << 30), edge_keep=rng.uniform(0.4, 0.8))
            region = rng.sample(range(g.n), rng.randint(12, 16))
            for h in (K3, u_graph(2, 2), u_graph(2, 3)):
                for nt in (False, True):
                    got = find_odd_model(g, h, region, require_nontrivial=nt)
                    want = reference_find_odd_model(g, h, region, require_nontrivial=nt)
                    assert got == want, (g, h, nt, region)
                    if got is not None:
                        assert list(got[1]) == list(want[1])
                        found += 1
                    assert asked["masks"] == asked["sets"], (g, h, nt, region)
        assert found > 20 and asked["masks"] > 10_000

    def test_the_twenty_vertex_region_that_took_seconds(self):
        # the set-based search took about 3 s here: 70 533 placements, each
        # restarting the enumeration from every free vertex
        g = random_partial_ktree(30, 2, 395325658, edge_keep=0.5980392015580994)
        region = [0, 1, 2, 5, 6, 7, 8, 9, 12, 13, 15, 16, 17, 18, 20, 21, 22, 26, 27, 29]
        model, witness = find_odd_model(g, u_graph(2, 3), region, require_nontrivial=True)
        assert model.branch_sets == {0: (0, 7), 1: (1, 6, 12, 13), 2: (2, 5), 3: (9, 16)}
        assert verify_model(g, model) == (True, None)
        assert verify_odd_witness(g, model, witness) == (True, None)


class TestNonTrivialK1:
    """A non-trivial K_1 is the region's least edge, answered without the search and before the cap.

    So is a trivial K_1, the region's least vertex.
    """

    def test_same_model_and_witness_as_the_search(self):
        rng = random.Random(1601)
        found = 0
        for _ in range(3000):
            g = random_small_graph(rng, 14)
            region = None if rng.random() < 0.2 else rng.sample(range(g.n), rng.randint(1, g.n))
            got = find_odd_model(g, K1, region, require_nontrivial=True)
            want = reference_find_odd_model(g, K1, region, require_nontrivial=True)
            assert got == want, (g, region)
            if got is not None:
                assert list(got[1].items()) == list(want[1].items())
                found += 1
            else:
                assert not any(g.adj[v] & set(region or range(g.n)) for v in region or range(g.n))
        assert 1000 < found < 3000

    def test_no_branch_set_is_placed(self, monkeypatch):
        placed = []
        place = oddmodel._place

        def counted(*args):
            placed.append(args[1])
            return place(*args)

        monkeypatch.setattr(oddmodel, "_place", counted)
        g = random_partial_ktree(20, 2, 7)
        for region in (None, range(3, 17), [4, 9, 11, 15]):
            find_odd_model(g, K1, region, require_nontrivial=True)
        for region in (None, range(3, 17), [4, 9, 11, 15]):  # a trivial K_1 is a single vertex
            find_odd_model(g, K1, region)
        assert placed == []
        assert find_odd_model(g, K2, require_nontrivial=False) is not None
        assert placed

    def test_trivial_k1_same_model_and_witness_as_the_search(self):
        # the least region vertex with witness {v: 0}, whatever the cap
        rng = random.Random(1709)
        found = 0
        for trial in range(1500):
            g = random_small_graph(rng, 14) if trial % 5 else random_partial_ktree(rng.randint(30, 90), 3, trial)
            region = None if rng.random() < 0.2 else rng.sample(range(g.n), rng.randint(0, g.n))
            size = g.n if region is None else len(region)
            got = find_odd_model(g, K1, region, cap=rng.randrange(size + 1))
            want = reference_find_odd_model(g, K1, region, cap=size)
            assert got == want, (g, region)
            if got is not None:
                assert list(got[1].items()) == list(want[1].items())
                found += 1
        assert 1000 < found < 1500

    def test_caps_below_the_region_size(self):
        rng = random.Random(2803)
        found = 0
        for trial in range(1500):
            g = random_small_graph(rng, 14, n_min=2) if trial % 5 else random_partial_ktree(rng.randint(30, 90), 3, trial)
            region = None if rng.random() < 0.2 else rng.sample(range(g.n), rng.randint(2, g.n))
            size = g.n if region is None else len(region)
            got = find_odd_model(g, K1, region, require_nontrivial=True, cap=rng.randrange(size))
            want = reference_find_odd_model(g, K1, region, require_nontrivial=True, cap=size)
            assert got == want, (g, region)
            if got is not None:
                assert list(got[1].items()) == list(want[1].items())
                found += 1
        assert 500 < found < 1500

    def test_the_whole_graph_is_answered_without_a_region_set(self):
        # the 200 000-vertex matching's least edge, found on ``g.adj``, and its
        # vertex 0 for a trivial K_1; a set of its vertices would take 17.6 MB traced
        n = 200_000
        g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
        tracemalloc.start()
        try:
            model, witness = find_odd_model(g, K1, require_nontrivial=True)
            trivial = find_odd_model(g, K1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.branch_sets == {0: (0, 1)} and model.branch_trees == {0: ((0, 1),)}
        assert witness == {0: 1, 1: 0}
        assert trivial == (Model(pattern=K1, branch_sets={0: (0,)}, branch_trees={0: ()}), {0: 0})
        assert peak < 100_000, f"peak traced memory {peak} bytes"
