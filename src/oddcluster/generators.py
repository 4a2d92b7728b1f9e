"""Graph families and seeded random generators used by the CLI."""

import random
from itertools import combinations

from .graph import Graph, check_graph_size


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n):
    check_graph_size(n, n * (n - 1) // 2)
    return Graph(n, combinations(range(n), 2))


def star_graph(n):
    """Star on n vertices: centre 0, leaves 1..n-1."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return Graph(n, ((0, i) for i in range(1, n)))


def random_partial_ktree(n, k, seed, edge_keep=0.8):
    """Random subgraph of a random k-tree; treewidth at most k by construction."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    rng = random.Random(seed)
    base = min(k + 1, n)
    check_graph_size(n, base * (base - 1) // 2 + (n - base) * k)  # the k-tree, before edges are dropped
    edges = list(combinations(range(base), 2))
    cliques = [tuple(range(base))] if k > 0 else [(0,)]
    for v in range(base, n):
        host = list(rng.choice(cliques))
        if len(host) > k:
            host = rng.sample(host, k)
        for u in host:
            edges.append((u, v))
        cliques.append(tuple(sorted(host)) + (v,))
    kept = [e for e in edges if rng.random() < edge_keep]
    return Graph(n, kept)
