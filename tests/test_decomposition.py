import random
from itertools import combinations

import pytest

from oddcluster import (
    Graph,
    RootedTree,
    TreeDecomposition,
    exact_treewidth,
    heuristic_decomposition,
    induced_subgraph,
    validate_decomposition,
)
from oddcluster.decomposition import (
    decomposition_from_order,
    postorder,
    restrict_decomposition,
    subtree_bag_unions,
    trivial_decomposition,
)
from oddcluster.errors import ResourceLimitError
from oddcluster.generators import complete_graph, cycle_graph, random_tree
from conftest import brute_treewidth, random_small_graph


class TestValidate:
    def test_single_bag_triangle(self):
        g = cycle_graph(3)
        dec = trivial_decomposition(g)
        ok, why = validate_decomposition(g, dec)
        assert ok and why is None
        assert dec.width == 2

    def test_path_two_bags(self):
        g = Graph(3, [(0, 1), (1, 2)])
        dec = TreeDecomposition(RootedTree(parent={1: 0}, roots=(0,)), [(0, 1), (1, 2)])
        ok, _ = validate_decomposition(g, dec)
        assert ok and dec.width == 1

    def test_uncovered_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        dec = TreeDecomposition(RootedTree(parent={1: 0}, roots=(0,)), [(0, 1), (2,)])
        ok, why = validate_decomposition(g, dec)
        assert not ok and "1,2" in why.replace(" ", "").replace("(", "").replace(")", "")

    def test_disconnected_trace(self):
        g = Graph(3, [(0, 1), (1, 2)])
        dec = TreeDecomposition(
            RootedTree(parent={1: 0, 2: 1}, roots=(0,)),
            [(0, 1), (1, 2), (0,)],
        )
        ok, why = validate_decomposition(g, dec)
        assert not ok and "vertex 0" in why


    def test_repeated_vertex_in_a_bag(self):
        g = Graph(3, [(0, 1), (1, 2)])
        dec = TreeDecomposition(RootedTree(parent={1: 0}, roots=(0,)), [(0, 1, 1), (1, 2)])
        assert validate_decomposition(g, dec) == reference_validate(g, dec) == (True, None)


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
        assert dec.tree.roots == (0,)
        children = dec.tree.children()
        for x, kids in children.items():
            mins = [min(dec.bags[y]) for y in kids if dec.bags[y]]
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


class TestRestrictAndTraversal:
    def test_restrict_stays_valid(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_small_graph(rng, 8, n_min=2)
            _, dec = exact_treewidth(g)
            xs = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            sub, m = induced_subgraph(g, xs)
            old_to_new = {v: i for i, v in enumerate(m)}
            rdec = restrict_decomposition(dec, old_to_new)
            ok, why = validate_decomposition(sub, rdec)
            assert ok, why
            assert rdec.width <= dec.width

    def test_postorder_children_first(self):
        _, dec = exact_treewidth(cycle_graph(6))
        seen = set()
        for x in postorder(dec):
            for c, p in dec.tree.parent.items():
                if p == x:
                    assert c in seen
            seen.add(x)
        assert seen == set(range(dec.num_nodes))

    def test_subtree_bag_unions(self):
        _, dec = exact_treewidth(cycle_graph(6))
        unions = subtree_bag_unions(dec)
        assert unions[dec.tree.roots[0]] == set(range(6))
        children = dec.tree.children()
        for x in range(dec.num_nodes):
            expect = set(dec.bags[x])
            for c in children[x]:
                expect |= unions[c]
            assert unions[x] == expect

    def test_restrict_min_fill_decompositions(self):
        # deep min-fill trees, where the virtual tree contracts long paths
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(29)
        for trial in range(40):
            g = random_partial_ktree(rng.randint(10, 60), rng.randint(1, 3), trial)
            dec = heuristic_decomposition(g)
            xs = sorted(rng.sample(range(g.n), rng.randint(1, max(1, g.n // 4))))
            sub, m = induced_subgraph(g, xs)
            rdec = restrict_decomposition(dec, {v: i for i, v in enumerate(m)})
            ok, why = validate_decomposition(sub, rdec)
            assert ok, why
            assert rdec.width <= dec.width
            # only bags meeting xs, plus at most one LCA between consecutive ones
            touched = sum(1 for b in dec.bags if set(b) & set(xs))
            assert rdec.num_nodes <= 2 * touched - 1

    def test_identity_restriction_is_the_decomposition(self):
        g = cycle_graph(9)
        dec = heuristic_decomposition(g)
        assert restrict_decomposition(dec, {v: v for v in range(9)}) is dec
        shifted = restrict_decomposition(dec, {v: v - 1 for v in range(1, 9)})
        assert shifted is not dec
        assert validate_decomposition(induced_subgraph(g, range(1, 9))[0], shifted)[0]

    def test_restricting_a_restriction_restricts_the_host(self):
        # the kept nodes are closed under LCA, so a second restriction keeps
        # what one restriction of the host keeps, in the same pre-order
        from oddcluster.generators import random_partial_ktree

        rng = random.Random(31)
        for trial in range(60):
            g = random_partial_ktree(rng.randint(6, 50), rng.randint(1, 3), trial)
            dec = exact_treewidth(g)[1] if g.n <= 10 else heuristic_decomposition(g)
            outer = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            inner = sorted(rng.sample(outer, rng.randint(1, len(outer))))
            pos = {v: i for i, v in enumerate(outer)}
            once = restrict_decomposition(dec, {v: pos[v] for v in outer})
            twice = restrict_decomposition(once, {pos[v]: j for j, v in enumerate(inner)})
            direct = restrict_decomposition(dec, {v: j for j, v in enumerate(inner)})
            assert twice.tree.parent == direct.tree.parent
            assert twice.tree.roots == direct.tree.roots
            assert twice.bags == direct.bags
            assert postorder(twice) == postorder(direct)
            # host ids kept as they are: the same tree, bags before the relabel
            in_host = restrict_decomposition(dec, {v: v for v in inner})
            assert in_host.tree.parent == direct.tree.parent
            assert in_host.tree.roots == direct.tree.roots
            assert [tuple(inner[j] for j in bag) for bag in direct.bags] == list(in_host.bags)

    def test_postorder_long_path_at_default_recursion_limit(self):
        n = 5000
        dec = TreeDecomposition(
            RootedTree(parent={i: i - 1 for i in range(1, n)}, roots=(0,)),
            [(i,) for i in range(n)],
        )
        assert postorder(dec) == list(range(n - 1, -1, -1))
        assert len(subtree_bag_unions(dec)[0]) == n


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
    """Validation as first written: one scan over every node per edge and per vertex."""
    nodes = set(range(dec.num_nodes))
    if dec.tree.vertices() != nodes:
        return False, "decomposition tree nodes do not match bag indices"
    for b in dec.bags:
        for v in b:
            if not 0 <= v < g.n:
                return False, f"bag contains invalid vertex {v}"
    for a, b in g.edges:
        if not any(a in bag and b in bag for bag in dec.bags):
            return False, f"edge ({a},{b}) not covered by any bag"
    tree_adj = {x: set() for x in nodes}
    for x, y in dec.tree.edges():
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


class TestAgainstReferences:
    def test_heap_min_fill_matches_quadratic_order(self):
        from oddcluster.decomposition import _min_fill_order
        from oddcluster.generators import random_graph, random_partial_ktree

        rng = random.Random(41)
        graphs = [cycle_graph(n) for n in (3, 4, 10, 31)] + [complete_graph(5), Graph(6)]
        for trial in range(60):
            graphs.append(random_small_graph(rng, 12))
            graphs.append(random_graph(rng.randint(5, 25), rng.random() * 0.4, trial))
            graphs.append(random_partial_ktree(rng.randint(5, 40), rng.randint(1, 4), trial))
        for g in graphs:
            assert _min_fill_order(g) == reference_min_fill_order(g)

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
            mutated = TreeDecomposition(dec.tree, [sorted(set(b)) for b in bags])
            assert validate_decomposition(g, mutated) == reference_validate(g, mutated)
