import random
from itertools import combinations

import pytest

from oddcluster import (
    Graph,
    TreeDecomposition,
    exact_treewidth,
    heuristic_decomposition,
    induced_subgraph,
    validate_decomposition,
)
from oddcluster.decomposition import (
    postorder,
    restrict_decomposition,
    subtree_bag_unions,
)
from oddcluster.errors import ResourceLimitError
from oddcluster.generators import complete_graph, cycle_graph, star_graph
from conftest import (
    brute_treewidth,
    permuted,
    random_graph,
    random_small_graph,
    random_tree,
    renumbered,
    strip,
    tree_children,
    trivial_decomposition,
)


class TestValidate:
    def test_single_bag_triangle(self):
        g = cycle_graph(3)
        dec = trivial_decomposition(g)
        ok, why = validate_decomposition(g, dec)
        assert ok and why is None
        assert dec.width == 2

    def test_path_two_bags(self):
        g = Graph(3, [(0, 1), (1, 2)])
        dec = TreeDecomposition((-1, 0), [(0, 1), (1, 2)])
        ok, _ = validate_decomposition(g, dec)
        assert ok and dec.width == 1

    def test_uncovered_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        dec = TreeDecomposition((-1, 0), [(0, 1), (2,)])
        ok, why = validate_decomposition(g, dec)
        assert not ok and "1,2" in why.replace(" ", "").replace("(", "").replace(")", "")

    def test_disconnected_trace(self):
        g = Graph(3, [(0, 1), (1, 2)])
        dec = TreeDecomposition((-1, 0, 1), [(0, 1), (1, 2), (0,)])
        ok, why = validate_decomposition(g, dec)
        assert not ok and "vertex 0" in why

    def test_repeated_vertex_in_a_bag(self):
        # a repeat would count twice in the width: (0, 1, 1) is a bag of 2 vertices, not 3
        g = Graph(3, [(0, 1), (1, 2)])
        dec = TreeDecomposition((-1, 0), [(0, 1, 1), (1, 2)])
        want = (False, "bag 0 repeats vertex 1")
        assert validate_decomposition(g, dec) == reference_validate(g, dec) == want


class TestExactTreewidth:
    def test_trees_have_width_one(self):
        for seed in range(10):
            g = random_tree(8, seed)
            width, dec = exact_treewidth(g)
            assert width == 1
            assert validate_decomposition(g, dec)[0]

    def test_k5(self):
        width, dec = exact_treewidth(complete_graph(5))
        assert width == 4

    def test_c6(self):
        width, dec = exact_treewidth(cycle_graph(6))
        assert width == 2

    def test_single_vertex(self):
        width, dec = exact_treewidth(Graph(1))
        assert width == 0

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            exact_treewidth(Graph(30), cap=18)

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_small_graph(rng, 6)
            width, dec = exact_treewidth(g)
            assert width == brute_treewidth(g)
            ok, why = validate_decomposition(g, dec)
            assert ok, why

    def test_monotone_under_induced_subgraphs(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_small_graph(rng, 6, n_min=2)
            w_full = exact_treewidth(g)[0]
            xs = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            sub, _ = induced_subgraph(g, xs)
            assert exact_treewidth(sub)[0] <= w_full

    def test_normalized_rooting(self):
        _, dec = exact_treewidth(cycle_graph(6))
        assert [x for x, p in enumerate(dec.parent) if p < 0] == [0]
        for x in range(dec.num_nodes):
            mins = [min(dec.bags[y]) for y, p in enumerate(dec.parent) if p == x]
            assert mins == sorted(mins)


class TestHeuristic:
    def test_edgeless(self):
        g = Graph(4)
        dec = heuristic_decomposition(g)
        assert dec.width == 0
        assert validate_decomposition(g, dec)[0]

    def test_trees(self):
        for seed in range(10):
            g = random_tree(12, seed)
            dec = heuristic_decomposition(g)
            assert dec.width == 1
            assert validate_decomposition(g, dec)[0]

    def test_k4(self):
        assert heuristic_decomposition(complete_graph(4)).width == 3

    def test_never_below_exact(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_small_graph(rng, 7)
            exact = exact_treewidth(g)[0]
            dec = heuristic_decomposition(g)
            assert dec.width >= exact
            assert validate_decomposition(g, dec)[0]

    def test_exact_on_chordal_fixtures(self):
        # k-trees are chordal; min-fill finds a perfect elimination order
        from oddcluster.generators import random_partial_ktree

        for seed in range(8):
            g = random_partial_ktree(12, 2, seed, edge_keep=1.0)
            assert heuristic_decomposition(g).width == exact_treewidth(g)[0] == 2

    @pytest.mark.parametrize("shape, width", [("star", 1), ("fan", 2), ("wheel", 3)])
    def test_hubs_of_twenty_thousand_vertices(self, shape, width):
        # each elimination next to the hub must not pay the hub's degree
        g = HUBS[shape](20000)
        dec = heuristic_decomposition(g)
        assert dec.width == width
        assert validate_decomposition(g, dec) == (True, None)


class TestRestrictAndTraversal:
    def test_restrict_stays_valid(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_small_graph(rng, 8, n_min=2)
            _, dec = exact_treewidth(g)
            xs = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            sub, m = induced_subgraph(g, xs)
            rdec = restrict_decomposition(dec, xs)
            ok, why = validate_decomposition(sub, renumbered(rdec, m))
            assert ok, why
            assert rdec.width <= dec.width

    def test_postorder_children_first(self):
        _, dec = exact_treewidth(cycle_graph(6))
        seen = set()
        for x in postorder(dec):
            for c, p in enumerate(dec.parent):
                if p == x:
                    assert c in seen
            seen.add(x)
        assert seen == set(range(dec.num_nodes))

    def test_subtree_bag_unions(self):
        _, dec = exact_treewidth(cycle_graph(6))
        unions = node_unions(dec)
        assert unions[0] == set(range(6))
        for x in range(dec.num_nodes):
            expect = set(dec.bags[x])
            for c, p in enumerate(dec.parent):
                if p == x:
                    expect |= unions[c]
            assert unions[x] == expect

    def test_restrict_min_fill_decompositions(self):
        # deep min-fill trees, where the restriction contracts long paths
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(29)
        for trial in range(40):
            g = random_partial_ktree(rng.randint(10, 60), rng.randint(1, 3), trial)
            dec = heuristic_decomposition(g)
            xs = sorted(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 4))))
            sub, m = induced_subgraph(g, xs)
            rdec = restrict_decomposition(dec, xs)
            ok, why = validate_decomposition(sub, renumbered(rdec, m))
            assert ok, why
            assert rdec.width <= dec.width
            # exactly the bags meeting xs
            touched = sum(1 for b in dec.bags if set(b) & set(xs))
            assert rdec.num_nodes == touched

    def test_restriction_keeps_no_empty_bag(self):
        # every kept node's bag meets xs; an xs that meets no bag gets one empty bag
        from oddcluster.decomposition import decompose
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(37)
        for trial in range(60):
            g = random_partial_ktree(rng.randint(6, 50), rng.randint(1, 3), trial)
            dec = decompose(g)
            for xs in [*random_domains(rng, g, 4), [g.n]]:
                rdec = restrict_decomposition(dec, xs)
                if set(xs) & dec.trace.keys():
                    assert all(rdec.bags), (trial, sorted(xs))
                else:
                    assert rdec.bags == ((),)

    def test_identity_restriction_is_the_decomposition(self):
        g = cycle_graph(9)
        dec = heuristic_decomposition(g)
        whole = restrict_decomposition(dec, range(9))
        assert (whole.parent, whole.bags) == (dec.parent, dec.bags)
        shifted = restrict_decomposition(dec, range(1, 9))
        assert shifted is not dec
        sub, m = induced_subgraph(g, range(1, 9))
        assert validate_decomposition(sub, renumbered(shifted, m))[0]

    def test_restricting_a_restriction_restricts_the_host(self):
        # a node's nearest ancestor meeting the inner set is its nearest kept
        # ancestor meeting it, so a second restriction keeps what one
        # restriction of the host keeps, in the same pre-order
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(31)
        for trial in range(60):
            g = random_partial_ktree(rng.randint(6, 50), rng.randint(1, 3), trial)
            dec = exact_treewidth(g)[1] if g.n <= 10 else heuristic_decomposition(g)
            outer = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            inner = sorted(rng.sample(outer, rng.randint(1, len(outer))))
            once = restrict_decomposition(dec, outer)
            twice = restrict_decomposition(once, inner)
            direct = restrict_decomposition(dec, inner)
            assert twice.parent == direct.parent
            assert twice.bags == direct.bags
            assert postorder(twice) == postorder(direct)
            sub, m = induced_subgraph(g, inner)
            ok, why = validate_decomposition(sub, renumbered(direct, m))
            assert ok, why

    def test_postorder_long_path_at_default_recursion_limit(self):
        n = 5000
        dec = TreeDecomposition(range(-1, n - 1), [(i,) for i in range(n)])
        assert postorder(dec) == list(range(n - 1, -1, -1))
        assert len(node_unions(dec)[0]) == n


def node_unions(dec):
    """Node -> its subtree bag union, read off the post-order stream."""
    order = postorder(dec)
    return dict(zip(order, subtree_bag_unions(dec, order)))


def fan_graph(n):
    """Hub 0 joined to every vertex of the path 1 .. n-1."""
    return Graph(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


def wheel_graph(n):
    """Hub 0 joined to every vertex of the cycle 1 .. n-1."""
    return Graph(n, fan_graph(n).edges | {(1, n - 1)})


HUBS = {"star": star_graph, "fan": fan_graph, "wheel": wheel_graph}


def reference_min_fill_order(g):
    """Min-fill as first written: recompute every live vertex's fill each step."""
    adj = [set(s) for s in g.adj]
    alive = set(range(g.n))
    order = []
    while alive:
        best = min(
            alive,
            key=lambda v: (
                sum(1 for a in adj[v] for b in adj[v] if a < b and b not in adj[a]),
                v,
            ),
        )
        for a in adj[best]:
            for b in adj[best]:
                if a != b:
                    adj[a].add(b)
        for a in adj[best]:
            adj[a].discard(best)
        alive.remove(best)
        order.append(best)
    return order


def reference_validate(g, dec):
    """Validation as first written: one scan over every node per edge and per vertex.

    A vertex listed twice in one bag, once let through with the repeat counted
    in the width, is reported too.
    """
    nodes = set(range(dec.num_nodes))
    for x, b in enumerate(dec.bags):
        for i, v in enumerate(b):
            if not 0 <= v < g.n:
                return False, f"bag contains invalid vertex {v}"
            if v in b[:i]:
                return False, f"bag {x} repeats vertex {v}"
    for a, b in g.edges:
        if not any(a in bag and b in bag for bag in dec.bags):
            return False, f"edge ({a},{b}) not covered by any bag"
    tree_adj = {x: set() for x in nodes}
    for x, y in enumerate(dec.parent):
        if y >= 0:
            tree_adj[x].add(y)
            tree_adj[y].add(x)
    for v in range(g.n):
        trace = {x for x in nodes if v in dec.bags[x]}
        if not trace:
            return False, f"vertex {v} appears in no bag"
        start = min(trace)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in tree_adj[x] & trace:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != trace:
            return False, f"bags containing vertex {v} are not connected in the tree"
    recomputed = max((len(b) for b in dec.bags), default=0) - 1
    if dec.width != recomputed:
        return False, f"stored width {dec.width} != recomputed {recomputed}"
    return True, None


def reference_find_order_within(g, k):
    """Order search as first written: filled neighbourhoods by walks through the eliminated set."""

    def reach_through(v, eliminated):
        seen, out, stack = {v}, set(), [v]
        while stack:
            for y in g.adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    if y in eliminated:
                        stack.append(y)
                    else:
                        out.add(y)
        return out

    dead = set()

    def search(eliminated, order):
        if len(eliminated) == g.n:
            return True
        key = frozenset(eliminated)
        if key in dead:
            return False
        candidates = []
        for v in sorted(set(range(g.n)) - eliminated):
            nbrs = reach_through(v, eliminated)
            if len(nbrs) > k:
                continue
            if len(nbrs) <= 1 or all(nbrs - {a} <= reach_through(a, eliminated) for a in nbrs):
                candidates = [v]
                break
            candidates.append(v)
        for v in candidates:
            eliminated.add(v)
            order.append(v)
            if search(eliminated, order):
                return True
            eliminated.discard(v)
            order.pop()
        dead.add(key)
        return False

    order = []
    return order if search(set(), order) else None


def reference_decomposition_from_order(g, order):
    """decomposition_from_order before min-fill recorded its bags: replay the game, then build."""
    from oddcluster.decomposition import _eliminate, preorder_decomposition

    if g.n == 0:
        return TreeDecomposition((-1,), [()])
    adj = [set(s) for s in g.adj]
    bags = []
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        bags.append(adj[v] | {v})
        _eliminate(adj, v)
    children = [[] for _ in order]
    for i, v in enumerate(order[:-1]):
        later = [pos[u] for u in bags[i] if u != v]
        children[min(later) if later else i + 1].append(i)
    for kids in children:
        kids.sort(key=lambda y: min(bags[y]))
    return preorder_decomposition(children, [len(order) - 1], bags)


def reference_degeneracy_lower_bound(g):
    """The MMD lower bound peeled to the last vertex."""
    adj = [set(s) for s in g.adj]
    alive = set(range(g.n))
    lb = 0
    while alive:
        v = min(alive, key=lambda x: (len(adj[x]), x))
        lb = max(lb, len(adj[v]))
        for u in adj[v]:
            adj[u].discard(v)
        alive.remove(v)
    return lb


def reference_exact_treewidth(g):
    """exact_treewidth composed of the reference min-fill, replay and full peel."""
    from oddcluster.decomposition import _find_order_within

    mf_dec = reference_decomposition_from_order(g, reference_min_fill_order(g))
    ub = mf_dec.width
    for k in range(reference_degeneracy_lower_bound(g), ub):
        found = _find_order_within(g, k)
        if found is not None:
            return k, reference_decomposition_from_order(g, found[0])
    return ub, mf_dec


def differential_graphs():
    """Tier-1 fixtures, 1000 seeded random graphs of at most 40 vertices, hubs,
    and relabelled cycles and width-2 and width-3 strips of 150-300 vertices."""
    from oddcluster.generators import random_partial_ktree

    _, graphs = TestPreorderAgainstTraceIndex().fixtures()
    rng = random.Random(41)
    graphs += [cycle_graph(n) for n in (3, 4, 10, 31)] + [complete_graph(5), Graph(6)]
    for trial in range(60):
        graphs.append(random_small_graph(rng, 12))
        graphs.append(random_partial_ktree(rng.randint(5, 40), rng.randint(1, 4), trial))
    for trial in range(1000):
        graphs.append(random_graph(rng.randint(0, 40), rng.random() * 0.3, trial))
    for n in (5, 6, 7, 12, 30, 75, 150, 300):
        graphs += [make(n) for make in HUBS.values()]
    for trial in range(4):  # thin-long's shapes: most pops have fill 0 or 1
        n = rng.randint(150, 300)
        graphs += [permuted(g, trial) for g in (cycle_graph(n), strip(n // 2, 2), strip(n // 3, 3))]
    return graphs


class TestAgainstReferences:
    def test_heap_min_fill_matches_quadratic_order(self):
        # one incremental pass gives the quadratic order and the replayed decomposition
        from oddcluster.decomposition import _min_fill_elimination, _tree_from_bags

        for g in differential_graphs():
            order, bags = _min_fill_elimination(g)
            assert order == reference_min_fill_order(g)
            dec = _tree_from_bags(order, bags)
            want = reference_decomposition_from_order(g, order)
            assert (dec.parent, dec.bags) == (want.parent, want.bags)
            dec = heuristic_decomposition(g)
            assert (dec.parent, dec.bags) == (want.parent, want.bags)

    def test_exact_treewidth_matches_the_replayed_composition(self):
        checked = 0
        for g in differential_graphs():
            if g.n <= 14:
                width, dec = exact_treewidth(g)
                want_width, want = reference_exact_treewidth(g)
                assert (width, dec.parent, dec.bags) == (want_width, want.parent, want.bags)
                checked += 1
        assert checked > 500

    def test_order_search_matches_the_reach_through_game(self):
        # the order is the reach-through game's, and each recorded bag is the
        # replay's, so the tree built from them is the replayed one
        from oddcluster.decomposition import _eliminate, _find_order_within, _tree_from_bags
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(53)
        graphs = [cycle_graph(6), complete_graph(5), Graph(4)]
        for trial in range(40):
            graphs.append(random_small_graph(rng, 9))
            graphs.append(random_graph(rng.randint(4, 11), rng.random() * 0.6, trial))
            graphs.append(random_partial_ktree(rng.randint(4, 12), rng.randint(1, 3), trial))
        found = 0
        for g in graphs:
            for k in range(min(g.n, 5)):
                want = reference_find_order_within(g, k)
                got = _find_order_within(g, k)
                assert (got and got[0]) == want
                if got is not None:
                    order, bags = got
                    adj = [set(s) for s in g.adj]
                    for v, bag in zip(order, bags):
                        assert bag == adj[v] | {v}
                        _eliminate(adj, v)
                    dec = _tree_from_bags(order, bags)
                    replayed = reference_decomposition_from_order(g, order)
                    assert (dec.parent, dec.bags) == (replayed.parent, replayed.bags)
                    found += 1
        assert found > 50

    def test_validation_reports_the_same_violation(self):
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(43)
        for trial in range(150):
            g = random_partial_ktree(rng.randint(2, 20), rng.randint(1, 3), trial)
            dec = heuristic_decomposition(g)
            bags = [list(b) for b in dec.bags]
            for _ in range(rng.randint(0, 3)):
                x = rng.randrange(len(bags))
                if bags[x] and rng.random() < 0.5:
                    bags[x].remove(rng.choice(bags[x]))
                else:
                    bags[x].append(rng.randrange(g.n + 1))
            mutated = TreeDecomposition(dec.parent, [sorted(set(b)) for b in bags])
            assert validate_decomposition(g, mutated) == reference_validate(g, mutated)


# The trace-index representation as first written: a rooted tree over BFS
# node ids, restriction through pre-order entry/exit times, and post-order
# from the tree's children lists.  The parent-array code must reproduce it.
# A reference tree is a parent array (-1 at a root) in those node ids.


def reference_from_order(g, order):
    """decomposition_from_order as first written: a (parent array, bags) pair in BFS node ids."""
    from oddcluster.decomposition import _eliminate

    if g.n == 0:
        return (-1,), [()]
    adj = [set(s) for s in g.adj]
    bags = []
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        bags.append(adj[v] | {v})
        _eliminate(adj, v)
    parent = [-1] * len(order)
    for i, v in enumerate(order[:-1]):
        later = [u for u in bags[i] if u != v]
        parent[i] = pos[min(later, key=lambda u: pos[u])] if later else i + 1
    return reference_normalize(parent, bags)


def reference_normalize(tree, bags):
    """Re-root at node 0 by a BFS renumbering, children by minimum bag element."""
    children = tree_children(tree)
    root = tree.index(-1)
    new_id = {root: 0}
    order = [root]
    for x in order:
        for y in sorted(children[x], key=lambda y: (min(bags[y]) if bags[y] else -1, y)):
            new_id[y] = len(new_id)
            order.append(y)
    parent = [-1] * len(tree)
    for c, p in enumerate(tree):
        if p >= 0:
            parent[new_id[c]] = new_id[p]
    return tuple(parent), [tuple(sorted(bags[x])) for x in order]


def reference_restrict(tree, bags, xs):
    """Restriction through a trace index: pre-order entry/exit times, parents, vertex -> nodes."""
    children = tree_children(tree)
    n = len(bags)
    order = []
    stack = [x for x in reversed(range(n)) if tree[x] < 0]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(reversed(children[x]))
    tin, size = [0] * n, [1] * n
    for i, x in enumerate(order):
        tin[x] = i
    for x in reversed(order):
        if tree[x] >= 0:
            size[tree[x]] += size[x]
    tout = [tin[x] + size[x] for x in range(n)]
    trace = {}
    for x in order:
        for v in bags[x]:
            nodes = trace.setdefault(v, [])
            if not nodes or nodes[-1] != x:
                nodes.append(x)
    xs = frozenset(xs)
    hits = sorted({x for v in xs for x in trace.get(v, ())}, key=tin.__getitem__)
    if not hits:
        return (-1,), [()]
    nodes = hits
    new_id = {x: i for i, x in enumerate(nodes)}
    parent, ancestors = [-1] * len(nodes), []
    for x in nodes:
        while ancestors and tout[ancestors[-1]] <= tin[x]:
            ancestors.pop()
        if ancestors:
            parent[new_id[x]] = new_id[ancestors[-1]]
        ancestors.append(x)
    return tuple(parent), [tuple(v for v in bags[x] if v in xs) for x in nodes]


def reference_postorder(tree):
    """Post-order from the children lists, roots and children in index order."""
    children = tree_children(tree)
    out = []
    stack = [x for x, p in enumerate(tree) if p < 0]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(children[x])
    out.reverse()
    return out


def walk(dec):
    """Bags and subtree unions in post-order: all the dichotomy reads of a decomposition."""
    order = postorder(dec)
    return [(dec.bags[x], u) for x, u in zip(order, subtree_bag_unions(dec, order))]


def reference_walk(tree, bags):
    unions = [set(b) for b in bags]
    post = reference_postorder(tree)
    for x in post:
        if tree[x] >= 0:
            unions[tree[x]] |= unions[x]
    return [(tuple(bags[x]), unions[x]) for x in post]


def assert_same_restrictions(dec, tree, bags, domains):
    """Restrictions agree node for node; a restriction of one agrees with the other's too."""
    assert walk(dec) == reference_walk(tree, bags)
    for xs in domains:
        got = restrict_decomposition(dec, xs)
        rtree, rbags = reference_restrict(tree, bags, xs)
        assert walk(got) == reference_walk(rtree, rbags)
        assert got.parent == rtree
        assert got.bags == tuple(rbags)
        inner = sorted(xs)[::2]
        again = restrict_decomposition(got, inner)
        rtree2, rbags2 = reference_restrict(rtree, rbags, inner)
        assert walk(again) == reference_walk(rtree2, rbags2)
        assert again.parent == rtree2
        assert again.bags == tuple(rbags2)


def random_domains(rng, g, count):
    """Random vertex sets plus the BFS layers from vertex 0, the sets the colour recursion restricts to."""
    from oddcluster.graph import bfs_layers

    domains = [range(g.n)]
    if g.n:
        domains.extend(bfs_layers(g, 0).layers)
        domains.extend(rng.sample(range(g.n), rng.randint(1, g.n)) for _ in range(count))
    return domains


class TestPreorderAgainstTraceIndex:
    """Parent arrays in pre-order give the trace-index representation's restrictions and walks."""

    def fixtures(self):
        from oddcluster.generators import random_partial_ktree, star_graph
        from oddcluster.treedepth import u_graph

        rng = random.Random(67)
        graphs = [Graph(0), Graph(4), cycle_graph(6), cycle_graph(31), complete_graph(5)]
        graphs += [star_graph(9), u_graph(3, 2), random_tree(25, 3)]
        for trial in range(40):
            graphs.append(random_small_graph(rng, 10))
            graphs.append(random_partial_ktree(rng.randint(2, 60), rng.randint(1, 4), trial))
            # a forest: disjoint random trees, joined in the decomposition by the next-bag rule
            sizes = [rng.randint(1, 8) for _ in range(rng.randint(2, 5))]
            edges, base = [], 0
            for size in sizes:
                edges += [(base + rng.randrange(v), base + v) for v in range(1, size)]
                base += size
            graphs.append(Graph(base, edges))
        return rng, graphs

    def test_min_fill_and_exact_decompositions(self):
        from oddcluster.decomposition import (
            _find_order_within,
            _min_fill_elimination,
            _tree_from_bags,
        )

        rng, graphs = self.fixtures()
        for g in graphs:
            eliminations = [_min_fill_elimination(g)]
            if 0 < g.n <= 12:
                width = exact_treewidth(g)[0]
                eliminations.append(_find_order_within(g, width) or eliminations[0])
            for order, recorded in eliminations:
                dec = _tree_from_bags(order, recorded)
                tree, bags = reference_from_order(g, order)
                assert sorted(dec.bags) == sorted(bags)
                assert validate_decomposition(g, dec) == (True, None)
                assert_same_restrictions(dec, tree, bags, random_domains(rng, g, 6))

    def test_forest_shaped_decompositions(self):
        from oddcluster.decomposition import preorder_decomposition

        rng = random.Random(71)
        for trial in range(200):
            n = rng.randint(1, 30)
            ids = list(range(n))
            rng.shuffle(ids)  # node ids in no tree order
            roots = sorted(ids[: rng.randint(1, 3)])
            tree = [-1] * n
            for i in range(len(roots), n):
                tree[ids[i]] = ids[rng.randrange(i)]
            bags = [tuple(sorted(rng.sample(range(12), rng.randint(0, 4)))) for _ in range(n)]
            dec = preorder_decomposition(tree_children(tree), roots, bags)
            domains = [rng.sample(range(12), rng.randint(0, 12)) for _ in range(6)]
            assert_same_restrictions(dec, tuple(tree), bags, domains)

    @pytest.mark.parametrize(
        "parent",
        [(0,), (-1, 1), (-1, 2, 0), (-1, 0, 0, 1), (-1, 0, 1, 1, 0, 2), (-1, -2), (-1, 0, 5)],
    )
    def test_constructor_rejects_a_parent_array_out_of_pre_order(self, parent):
        with pytest.raises(ValueError, match="pre-order"):
            TreeDecomposition(parent, [()] * len(parent))

    def test_constructor_accepts_exactly_the_pre_orders(self):
        from oddcluster.decomposition import preorder_decomposition

        with pytest.raises(ValueError):
            TreeDecomposition((-1, 0), [(0,)])
        rng = random.Random(73)
        accepted = 0
        for _ in range(500):
            n = rng.randint(1, 9)
            parent = [-1] + [rng.randrange(-1, x) for x in range(1, n)]
            roots = [x for x in range(n) if parent[x] < 0]
            # in pre-order iff renumbering in pre-order, children by id, changes no id
            ids = preorder_decomposition(tree_children(parent), roots, [(x,) for x in range(n)]).bags
            in_preorder = ids == tuple((x,) for x in range(n))
            try:
                dec = TreeDecomposition(parent, [()] * n)
            except ValueError:
                assert not in_preorder, parent
                continue
            assert in_preorder, parent
            accepted += 1
            for x in range(n):
                assert dec.end[x] == x + 1 + sum(1 for y in range(x + 1, n) if is_below(parent, y, x))
        assert 50 < accepted < 500


def is_below(parent, y, x):
    """True iff node x is a strict ancestor of node y."""
    while parent[y] >= 0:
        y = parent[y]
        if y == x:
            return True
    return False
