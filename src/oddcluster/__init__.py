"""Clustered colouring of graphs excluding an odd minor.

Library surface: graphs and BFS layerings, exact tree-depth / treewidth
with witnesses, exhaustive odd-model search with parity witnesses, the
packing-vs-covering dichotomy, and the recursive clustered-colouring
algorithm that colours within budget or emits a verifiable certificate.
"""

from .errors import (
    InternalConsistencyError,
    OddClusterError,
    ParseError,
    ResourceLimitError,
)
from .graph import (
    Graph,
    Layering,
    RootedTree,
    bfs_layers,
    connected_components,
    induced_subgraph,
    layered_spanning_tree,
)
from .treedepth import (
    closure,
    connected_tree_depth,
    tree_depth,
    u_graph,
)
from .decomposition import (
    TreeDecomposition,
    exact_treewidth,
    heuristic_decomposition,
    validate_decomposition,
)
from .oddmodel import (
    Model,
    Witness,
    find_odd_model,
    is_nontrivial,
    parity_realizable,
    verify_model,
    verify_odd_witness,
)
from .eposa import Dichotomy, Target, disjoint_or_hitting
from .colouring import (
    Budgets,
    Colouring,
    OddModelCertificate,
    assemble_certificate,
    clustering_budget,
    colour_bounded_tw,
    colour_budget,
    colour_pipeline,
    make_colouring,
)
from .oracles import min_colours_with_clustering, odd_minor_oracle, verify_colouring

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
