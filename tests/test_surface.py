"""The library's public surface: what ``oddcluster`` exports, and what it no longer holds.

Helpers that only the tests call live in ``tests/conftest.py``; these checks
keep them from creeping back into the package unnoticed.
"""

import types

import pytest

import oddcluster
from oddcluster import RootedTree, decomposition, generators, graph

EXPORTS = {
    "Budgets",
    "Colouring",
    "Dichotomy",
    "Graph",
    "InternalConsistencyError",
    "Layering",
    "Model",
    "OddClusterError",
    "OddModelCertificate",
    "ParseError",
    "ResourceLimitError",
    "RootedTree",
    "Target",
    "TreeDecomposition",
    "Witness",
    "assemble_certificate",
    "bfs_layers",
    "closure",
    "clustering_budget",
    "colour_bounded_tw",
    "colour_budget",
    "colour_pipeline",
    "connected_components",
    "connected_tree_depth",
    "disjoint_or_hitting",
    "exact_treewidth",
    "find_odd_model",
    "heuristic_decomposition",
    "induced_subgraph",
    "is_nontrivial",
    "layered_spanning_tree",
    "make_colouring",
    "min_colours_with_clustering",
    "odd_minor_oracle",
    "parity_realizable",
    "tree_depth",
    "u_graph",
    "validate_decomposition",
    "verify_colouring",
    "verify_model",
    "verify_odd_witness",
}


def test_exports_are_exactly_the_library_surface():
    names = {n for n in oddcluster.__all__ if not isinstance(getattr(oddcluster, n), types.ModuleType)}
    assert names == EXPORTS


@pytest.mark.parametrize(
    "owner, name",
    [
        (graph, "is_bipartite"),
        (graph, "_conflict_cycle"),
        (decomposition, "trivial_decomposition"),
        (generators, "path_graph"),
        (generators, "empty_graph"),
        (generators, "random_tree"),
        (generators, "random_graph"),
        (RootedTree, "children"),
    ],
)
def test_test_only_helpers_stay_out_of_the_library(owner, name):
    assert not hasattr(owner, name)
