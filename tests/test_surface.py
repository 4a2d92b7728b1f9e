"""The library's public surface: what ``oddcluster`` exports, and what it no longer holds.

Helpers that only the tests call live in ``tests/conftest.py``; these checks
keep them from creeping back into the package unnoticed.
"""

import importlib
import importlib.util
import pathlib
import types

import pytest

import oddcluster
from oddcluster import Layering, colouring, decomposition, generators, graph, oddmodel, treedepth

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
    "Target",
    "TreeDecomposition",
    "assemble_certificate",
    "bfs_layers",
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
    "make_colouring",
    "min_colours_with_clustering",
    "odd_minor_oracle",
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
        (graph, "RootedTree"),
        (oddmodel, "parity_realizable"),
        (oddmodel, "Witness"),
        (graph, "layered_spanning_tree"),
        (treedepth, "closure"),
        (treedepth, "complete_dary_tree"),
        (Layering, "layer_of"),
        (colouring, "_k1_certificate"),  # ``find_odd_model`` holds the one non-trivial K_1 answer
        (colouring, "_colour_rec"),  # ``_Run.colour`` colours a vertex set, component by component
        (colouring, "_colour_component"),
        (colouring, "_component_oracle"),  # ``_Run.oracle`` is the layer oracle
        (colouring, "_may_hold_model"),
        (colouring, "_assert_scope_locality"),  # ``make_colouring`` checks scope locality on its cluster walk
        (colouring, "max_monochromatic_component"),  # ``make_colouring`` sizes the largest cluster
    ],
)
def test_test_only_helpers_stay_out_of_the_library(owner, name):
    assert not hasattr(owner, name)


def test_reach_stays_retired():
    assert not hasattr(graph, "reach")  # ``components`` is the one component walk


@pytest.mark.parametrize("name", ["_connected_subsets", "_grow"])
def test_set_based_enumeration_stays_retired(name):
    assert not hasattr(oddmodel, name)  # ``_connected_masks`` enumerates; the set form is conftest's reference


BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name):
    """A ``bench/`` module, loaded by its path; ``spans`` and ``verdict`` import only the standard library."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_bench_tracer_rebinds_exists():
    # the traced benchmark run wraps each binding by ``setattr`` on the module
    # that calls it, so a renamed function would otherwise fail only there
    spans = _load_bench_module("spans")
    bench_modules = {"verdict": _load_bench_module("verdict")}
    missing = []
    for _, mod_name, attr, _, _ in spans.BINDINGS:
        module = bench_modules.get(mod_name) or importlib.import_module(f"oddcluster.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"{mod_name}.{attr}")
    assert not missing
