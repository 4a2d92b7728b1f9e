import ast
import random
from itertools import product
from pathlib import Path

import pytest

from oddcluster import (
    Graph,
    make_colouring,
    min_colours_with_clustering,
    odd_minor_oracle,
    verify_colouring,
)
from oddcluster import oracles
from oddcluster.colouring import monochromatic_components
from oddcluster.errors import ResourceLimitError
from oddcluster.generators import complete_graph, cycle_graph, star_graph
from conftest import all_two_colourings_proper, path_graph, random_small_graph

K2 = Graph(2, [(0, 1)])
K3 = complete_graph(3)


class TestVerifyColouring:
    def test_k3_distinct_colours(self):
        g = K3
        c = make_colouring(g, {0: 0, 1: 1, 2: 2})
        ok, why = verify_colouring(g, c, 3, 1)
        assert ok, why

    def test_k3_single_colour_breaks_cluster(self):
        g = K3
        c = make_colouring(g, {0: 0, 1: 0, 2: 0})
        ok, why = verify_colouring(g, c, 3, 2)
        assert not ok and "cluster" in why

    def test_p5_alternating(self):
        g = path_graph(5)
        c = make_colouring(g, {v: v % 2 for v in range(5)})
        ok, why = verify_colouring(g, c, 2, 1)
        assert ok, why

    def test_too_many_colours(self):
        g = Graph(3)
        c = make_colouring(g, {0: 0, 1: 1, 2: 2})
        ok, why = verify_colouring(g, c, 2, 1)
        assert not ok and "colour" in why

    def test_missing_vertex_raises(self):
        g = Graph(2)
        c = make_colouring(g, {0: 0})
        with pytest.raises(ValueError):
            verify_colouring(g, c, 1, 1)


    def test_own_components_agree_with_the_colouring_module(self):
        # the falsifier walks colour classes itself; it must find the same
        # components, in the same order, so its verdicts and texts stay put
        rng = random.Random(808)
        for _ in range(200):
            g = random_small_graph(rng, 14)
            colour = {v: rng.randrange(rng.randint(1, 4)) for v in range(g.n)}
            assert oracles._monochromatic_components(g, colour) == monochromatic_components(g, colour)
            c = make_colouring(g, colour)
            worst = max(monochromatic_components(g, c.colour), key=len)
            ok, why = verify_colouring(g, c, 4, len(worst) - 1)
            assert not ok
            assert why == f"monochromatic component {worst} exceeds cluster bound {len(worst) - 1}"

    def test_imports_no_engine_module(self):
        # the falsifier shares no code with what it checks
        imported = set()
        for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert {m for m in imported if m.startswith((".", "oddcluster"))} == {".errors"}


class TestMinColours:
    def test_k4_cluster_one_needs_four(self):
        assert min_colours_with_clustering(complete_graph(4), 1) == 4

    def test_k4_cluster_four_needs_one(self):
        assert min_colours_with_clustering(complete_graph(4), 4) == 1

    def test_c5_cluster_two_needs_two(self):
        assert min_colours_with_clustering(cycle_graph(5), 2) == 2

    def test_edgeless(self):
        assert min_colours_with_clustering(Graph(6), 1) == 1

    def test_empty(self):
        assert min_colours_with_clustering(Graph(0), 1) == 0

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            min_colours_with_clustering(Graph(11), 1, cap=10)

    def test_matches_exhaustive(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_small_graph(rng, 5)
            for k in (1, 2, 3):
                got = min_colours_with_clustering(g, k)
                assert got == _brute_min_colours(g, k)


def _brute_min_colours(g, k):
    from oddcluster.colouring import max_monochromatic_component

    if g.n == 0:
        return 0
    for c in range(1, g.n + 1):
        for assign in product(range(c), repeat=g.n):
            colour = dict(enumerate(assign))
            if max_monochromatic_component(g, colour) <= k:
                return c
    return g.n


class TestOddMinorOracle:
    def test_c5_has_odd_k3(self):
        assert odd_minor_oracle(cycle_graph(5), K3)

    def test_c4_lacks_odd_k3(self):
        assert not odd_minor_oracle(cycle_graph(4), K3)

    def test_star_has_k2(self):
        assert odd_minor_oracle(star_graph(3), K2)

    def test_empty_pattern(self):
        assert odd_minor_oracle(Graph(3), Graph(0))

    def test_pattern_larger_than_host(self):
        assert not odd_minor_oracle(Graph(2), K3)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            odd_minor_oracle(Graph(9), K2, cap=8)

    def test_monotone_in_pattern_edges(self):
        # dropping a pattern edge can only make the pattern easier to find
        rng = random.Random(19)
        p3 = path_graph(3)
        for _ in range(30):
            g = random_small_graph(rng, 5)
            if odd_minor_oracle(g, K3):
                assert odd_minor_oracle(g, p3)


class TestTwoColouringHelper:
    def test_spanning_tree_colourings_of_a_path(self):
        from oddcluster.oracles import _tree_two_colourings

        cols = list(_tree_two_colourings((0, 1, 2), ((0, 1), (1, 2))))
        assert {0: 0, 1: 1, 2: 0} in cols and {0: 1, 1: 0, 2: 1} in cols
        assert len(cols) == 2
        assert all_two_colourings_proper(path_graph(3))
