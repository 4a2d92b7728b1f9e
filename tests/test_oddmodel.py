import random
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
from oddcluster.oddmodel import (
    Model,
    _connected_subsets,
    _max_edge_packing_bound,
    joining_edges,
)
from oddcluster.oracles import _spanning_trees, _tree_two_colourings
from oddcluster.generators import complete_graph, cycle_graph, star_graph
from conftest import bichromatic_bfs_tree, is_bipartite, parity_realizable, path_graph, random_small_graph

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
    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_small_graph(rng, 7)
            avail = set(range(g.n))
            adj = {v: g.adj[v] & avail for v in avail}
            got = set()
            for s in _connected_subsets(adj, avail, 1, lambda cur: True):
                assert s not in got, "subset enumerated twice"
                got.add(s)
            assert got == _brute_connected_subsets(g, avail)

    def test_monotone_fits_matches_brute_force_filtering(self):
        # fits is asked once per set of at least min_size vertices, and a set
        # that does not fit is neither yielded nor grown further
        rng = random.Random(6)
        for _ in range(60):
            g = random_small_graph(rng, 8)
            avail = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            adj = {v: g.adj[v] & avail for v in avail}
            min_size = rng.choice((1, 2))
            heavy = set(rng.sample(sorted(avail), min(len(avail), 3)))
            limit = rng.randint(1, 5)

            def ok(cur):
                return len(cur) <= limit and len(cur & heavy) <= 1

            def fits(cur):
                asked.append(frozenset(cur))
                return ok(cur)

            asked = []
            got = list(_connected_subsets(adj, avail, min_size, fits))
            expect = {s for s in _brute_connected_subsets(g, avail) if len(s) >= min_size and ok(set(s))}
            assert len(got) == len(set(got)) and set(got) == expect
            assert len(asked) == len(set(asked)), "a set was tested twice"
            assert all(len(s) >= min_size for s in asked)
            assert {frozenset(s) for s in got} <= set(asked)


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
    """The search against the one it replaced, kept below as the reference.

    The reference tests every candidate twice (before yielding it and after
    the join test) and keeps one colour dict per pattern vertex in the
    witness search; the two must return the same model and witness.
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
                    want = _reference_find_odd_model(g, h, region, require_nontrivial=nt)
                    assert got == want, (g, name, nt, region)
                    if got is not None:
                        assert list(got[1]) == list(want[1])
                        found += 1
        assert found > 100


def _reference_find_odd_model(g, pattern, region=None, require_nontrivial=False, cap=24):
    if region is None:
        region = range(g.n)
    region = sorted(set(region))
    region_set = set(region)
    if require_nontrivial and _max_edge_packing_bound(g, region_set) < pattern.n:
        return None
    if len(region) > cap:
        raise ResourceLimitError("capped")
    adj = {v: g.adj[v] & region_set for v in region}
    min_size = 2 if require_nontrivial else 1
    order = sorted(range(pattern.n), key=lambda x: (-pattern.degree(x), x))
    pattern_pos = {x: k for k, x in enumerate(order)}

    if pattern.n * min_size > len(region):
        return None

    def feasible_rest(available, slots_left):
        if require_nontrivial:
            return _max_edge_packing_bound(g, available) >= slots_left
        return len(available) >= slots_left

    def place(k, available, sets):
        if k == len(order):
            return _reference_witness_search(g, pattern, order, sets)
        x = order[k]
        slots_after = len(order) - k - 1

        def prune(current):
            if len(current) >= min_size:
                return not feasible_rest(available - current, slots_after)
            return False

        for mv in sorted(available):
            cands = _reference_grow(adj, {mv}, {v for v in available if v > mv}, prune)
            for cand in cands:
                if len(cand) < min_size:
                    continue
                cand_set = set(cand)
                ok = True
                for y in pattern.adj[x]:
                    if pattern_pos[y] < k and not joining_edges(g, sets[y], cand):
                        ok = False
                        break
                if not ok:
                    continue
                if not feasible_rest(available - cand_set, slots_after):
                    continue
                sets[x] = cand
                found = place(k + 1, available - cand_set, sets)
                if found is not None:
                    return found
                del sets[x]
        return None

    return place(0, region_set, {})


def _reference_grow(adj, current, candidates, prune):
    yield tuple(sorted(current))
    if prune(current):
        return
    frontier = sorted({u for v in current for u in adj[v] if u in candidates and u not in current})
    banned = set()
    for u in frontier:
        yield from _reference_grow(adj, current | {u}, candidates - banned, prune)
        banned.add(u)


def _reference_witness_search(g, pattern, order, sets):
    options = {}
    for x, bs in sets.items():
        opts = []
        for bits in range(1 << len(bs)):
            col = {v: (bits >> i) & 1 for i, v in enumerate(bs)}
            if parity_realizable(g, bs, col):
                opts.append(col)
        if not opts:
            return None
        options[x] = opts
    joins = {}
    for x, y in pattern.edges:
        je = joining_edges(g, sets[x], sets[y])
        if not je:
            return None
        joins[(x, y)] = je

    chosen = {}

    def assign(k):
        if k == len(order):
            return True
        x = order[k]
        for col in options[x]:
            chosen[x] = col
            ok = True
            for y in pattern.adj[x]:
                if y not in chosen or y == x:
                    continue
                key = (x, y) if (x, y) in joins else (y, x)
                mono = False
                for a, b in joins[key]:
                    ca = chosen[x].get(a, chosen[y].get(a))
                    cb = chosen[x].get(b, chosen[y].get(b))
                    if ca == cb:
                        mono = True
                        break
                if not mono:
                    ok = False
                    break
            if ok and assign(k + 1):
                return True
            del chosen[x]
        return False

    if not assign(0):
        return None
    colour = {}
    for x in sets:
        colour.update(chosen[x])
    model = Model(
        pattern=pattern,
        branch_sets={x: tuple(bs) for x, bs in sets.items()},
        branch_trees={x: bichromatic_bfs_tree(g, bs, chosen[x]) for x, bs in sets.items()},
    )
    return model, colour
